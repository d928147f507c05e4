"""Periodic divisions: fairness test, exhaustive pattern enumeration, root search.

A division that repeats a block of N signs forever is fair exactly when the
block is balanced (sign sum zero) and its residual sum_{i<=N} s_i q^i
vanishes, i.e. when q is a root of the corresponding balanced plus-minus
pattern. :func:`min_period_search` scans all balanced patterns degree by
degree for roots inside (0, 1); the smallest degree with any hit is 6
(e.g. "+---++" at the inverse golden ratio).

Roots are isolated exactly on integer coefficients. A balanced pattern is
x * (1-x)^m * Q(x) with Q integer and nonzero at 0 and 1; the squarefree
part of Q is split into intervals holding one root each by Descartes' rule
of signs with Vincent-Collins-Akritas bisection, and each interval is then
refined by :func:`core.bisect_root` on the exact sign of the polynomial at
a float. No root decision depends on float rounding. Rotated patterns are
distinct periodic divisions and are searched separately; the global
negation of a hit is always a hit with the same roots (plate swap), so
each hit records its negation partner.

Searches over all balanced patterns (:func:`min_period_search`, and the
open-window branch of ``sim.classify``) grow like 2^n/sqrt(n) in the
degree, so they refuse up front when more than :data:`MAX_SEARCH_PATTERNS`
patterns would be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb, gcd
from typing import Iterator

from .core import (
    TOL,
    InputError,
    PMPattern,
    Signs,
    as_signs,
    bisect_root,
    eval_pm,
    require_unit_open,
    signs_to_text,
)

# Most balanced patterns one search may enumerate. Degree 18 (66,196 patterns
# through that degree; min_period_search(18) takes about 20 s on one Xeon
# core) is admitted; degree 20 (250,952) and up is refused.
MAX_SEARCH_PATTERNS = 100_000


@dataclass(frozen=True)
class PeriodicVerdict:
    """Fairness of one period: fair iff sign_sum == 0 and residual is zero-ish."""

    fair: bool
    sign_sum: int
    residual_abs: float


@dataclass(frozen=True)
class RootReport:
    pattern: PMPattern
    roots: tuple[float, ...]


@dataclass(frozen=True)
class PeriodicHit:
    """A balanced pattern with at least one root in (0, 1).

    ``negation_partner`` is the plate-swapped pattern text, which has the same
    roots; ``canonical`` is True for the lexicographically smaller of the pair.
    """

    pattern: PMPattern
    roots: tuple[float, ...]
    negation_partner: str
    canonical: bool


def classify_periodic(pattern: Signs, q: float) -> PeriodicVerdict:
    """Decide fairness of the periodic division that repeats ``pattern``;
    a residual within ``core.TOL`` counts as zero."""
    require_unit_open(q)
    signs = as_signs(pattern)
    if not signs:
        raise InputError("period must be nonempty")
    sign_sum = sum(signs)
    residual_abs = abs(eval_pm(signs, q))
    fair = sign_sum == 0 and residual_abs <= TOL
    return PeriodicVerdict(fair=fair, sign_sum=sign_sum, residual_abs=residual_abs)


def enumerate_balanced(n: int) -> Iterator[PMPattern]:
    """Yield all balanced patterns of degree n in lexicographic order ('+' < '-').

    There are C(n, n/2) of them for even n and none for odd n.
    """
    if n < 1:
        raise InputError(f"degree must be positive, got {n!r}")
    if n % 2 != 0:
        return
    half = n // 2
    for plus_positions in combinations(range(n), half):
        signs = [-1] * n
        for pos in plus_positions:
            signs[pos] = 1
        yield PMPattern._trusted(tuple(signs))


def require_search_budget(max_degree: int) -> int:
    """Count the balanced patterns of degree <= max_degree before a search.

    Raises InputError, without enumerating anything, once the count exceeds
    :data:`MAX_SEARCH_PATTERNS`; the count stops there, so an absurd degree
    costs no more than a refused reasonable one.
    """
    count = 0
    for n in range(2, max_degree + 1, 2):
        count += comb(n, n // 2)
        if count > MAX_SEARCH_PATTERNS:
            raise InputError(
                f"searching degrees <= {max_degree} enumerates more than "
                f"{MAX_SEARCH_PATTERNS:,} balanced patterns ({count:,} through "
                f"degree {n} alone); choose a smaller degree"
            )
    return count


# Integer polynomials are lists of coefficients in ascending order of power.


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // g for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^(deg a - deg b + 1) * a by b, without trailing zeros."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    for i in range(len(a) - 1 - db, -1, -1):
        top = r.pop()  # the coefficient of x^(i + db), cancelled below
        r = [lead * c for c in r]
        for j in range(db):
            r[i + j] -= top * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of a and b (deg a >= deg b >= 0) by primitive remainders."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over the integers."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        out[i] = top = r[i + db] // lead
        for j, c in enumerate(b):
            r[i + j] -= top * c
    return out


def _shift_by_one(p: list[int]) -> list[int]:
    """Coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _sign_changes(p: list[int]) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _scaled_value(p: list[int], x: float) -> int:
    """den^deg(p) * p(x) for x = num/den exactly: a positive multiple of p(x)."""
    num, den = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _isolate(q: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Vincent-Collins-Akritas bisection of a squarefree q on (0, 1).

    A node (c, k, p) stands for the interval (c/2^k, (c+1)/2^k), with p(x)
    a positive multiple of q((c + x)/2^k). By Descartes' rule the sign
    changes of (1+x)^d p(1/(1+x)) bound the node's roots and have their
    parity: none means no root, one means exactly one. Returns the dyadic
    roots met as midpoints and the isolating intervals, both as (c, k).
    """
    d = len(q) - 1
    exact: list[tuple[int, int]] = []
    intervals: list[tuple[int, int]] = []
    stack = [(0, 0, q)]
    while stack:
        c, k, p = stack.pop()
        changes = _sign_changes(_shift_by_one(p[::-1]))
        if changes == 1:
            intervals.append((c, k))
        elif changes > 1:
            left = [a << (d - i) for i, a in enumerate(p)]  # 2^d p(x/2)
            right = _shift_by_one(left)  # 2^d p((1+x)/2)
            if right[0] == 0:
                exact.append((2 * c + 1, k + 1))
            stack.append((2 * c + 1, k + 1, right))
            stack.append((2 * c, k + 1, left))
    return exact, intervals


def _unit_interval_roots(q: list[int], tol: float) -> list[float]:
    """Sorted roots in (0, 1) of an integer polynomial with q(0), q(1) != 0.

    Each root is reported once whatever its multiplicity: isolation runs on
    the squarefree part q / gcd(q, q'). A dyadic root met as a midpoint is
    exact; every other root is bisected to width <= tol on the sign of the
    squarefree part with those dyadic roots divided out, so no bracket
    endpoint is a root.
    """
    if len(q) < 2:
        return []
    q = _exact_quotient(q, _poly_gcd(q, [i * c for i, c in enumerate(q)][1:]))
    exact, intervals = _isolate(q)
    for c, k in exact:
        q = _exact_quotient(q, [-c, 1 << k])
    roots = [c / (1 << k) for c, k in exact]
    for c, k in intervals:
        lo, hi = c / (1 << k), (c + 1) / (1 << k)
        roots.append(bisect_root(lambda x: _scaled_value(q, x), lo, hi, tol))
    return sorted(roots)


def pattern_roots(pattern: PMPattern, root_tol: float = TOL) -> RootReport:
    """Locate roots of ``pattern`` in (0, 1) by exact isolation plus bisection.

    Divides the pattern by x and by (1-x) as often as it vanishes at 1,
    which leaves an integer cofactor nonzero at both ends, isolates the
    cofactor's roots in (0, 1) and bisects each to width <= root_tol. Roots
    within 2*root_tol of either endpoint are discarded and roots within
    2*root_tol of each other merged. An empty root list is a perfectly
    normal outcome.
    """
    if not root_tol > 0.0:
        raise InputError(f"root_tol must be positive, got {root_tol!r}")
    cofactor = list(as_signs(pattern))  # the pattern divided by x
    if not cofactor:
        raise InputError("cannot find roots of an empty sign sequence")
    while sum(cofactor) == 0:  # divide by (1 - x): prefix sums
        cofactor = list(accumulate(cofactor))[:-1]

    roots: list[float] = []
    for r in _unit_interval_roots(cofactor, root_tol):
        if r < 2.0 * root_tol or r > 1.0 - 2.0 * root_tol:
            continue
        if roots and r - roots[-1] <= 2.0 * root_tol:
            continue
        roots.append(r)
    return RootReport(pattern=pattern, roots=tuple(roots))


def min_period_search(max_N: int, root_tol: float = TOL) -> dict[int, list[PeriodicHit]]:
    """Search every period length N <= max_N for patterns with roots in (0, 1).

    Odd N carry an empty list (no balanced pattern exists). The enumeration
    order is deterministic, so the output is reproducible; no claim of having
    listed every fair division is made beyond the searched degrees. Raises
    InputError up front beyond the pattern budget (:func:`require_search_budget`).
    """
    if max_N < 2:
        raise InputError(f"max_N must be at least 2, got {max_N!r}")
    require_search_budget(max_N)
    results: dict[int, list[PeriodicHit]] = {}
    for n in range(1, max_N + 1):
        hits: list[PeriodicHit] = []
        if n % 2 == 0:
            for pattern in enumerate_balanced(n):
                report = pattern_roots(pattern, root_tol=root_tol)
                if report.roots:
                    partner = signs_to_text(-s for s in pattern.signs)
                    hits.append(
                        PeriodicHit(
                            pattern=pattern,
                            roots=report.roots,
                            negation_partner=partner,
                            canonical=pattern.to_text() < partner,
                        )
                    )
        results[n] = hits
    return results
