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
refined by :func:`core.bisect_root`, to width ``core.TOL``, on the exact
sign of the polynomial at a float. No root decision depends on float
rounding. Q and its squarefree part have +-1 as constant and leading
coefficients, so neither has a rational root in (0, 1): no root lies on a
dyadic bisection midpoint. Rotated patterns are distinct periodic divisions
and are searched separately; the global negation of a hit is always a hit
with the same roots (plate swap), so each hit records its negation partner.

:func:`min_period_search` enumerates every balanced pattern, a count that
grows like 2^n/sqrt(n) in the degree, so it refuses degrees above
:data:`MAX_SEARCH_DEGREE` up front.

The open-window branch of ``sim.classify`` asks a narrower question: which
is the first balanced pattern that changes sign on a short window around q?
:func:`first_bracketed_pattern` answers it by a depth-first search over sign
prefixes that drops every prefix whose completions all keep one sign on the
window; at degree 12 it visits about 70 nodes, where enumerating would
evaluate 1,274 patterns. It refuses degrees above
:data:`MAX_MEMBERSHIP_DEGREE` up front and stops after
:data:`MAX_MEMBERSHIP_NODES` visited nodes.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .core import (
    TOL,
    DomainError,
    InputError,
    PMPattern,
    Signs,
    as_signs,
    bisect_root,
    eval_pm,
    require_unit_open,
)

# Largest degree min_period_search enumerates: 66,196 balanced patterns
# through degree 18 (about 20 s on one Xeon core), 250,952 through 20.
MAX_SEARCH_DEGREE = 18

# Limits of first_bracketed_pattern: the largest degree it searches (its
# rounding argument assumes at most 64 terms) and the most prefix nodes one
# call may visit. Over 2,000 seeded q in the open window the worst call
# visits about 6,200 nodes at degree 64.
MAX_MEMBERSHIP_DEGREE = 64
MAX_MEMBERSHIP_NODES = 100_000


class PeriodicVerdict(NamedTuple):
    """Fairness of one period: fair iff sign_sum == 0 and residual is zero-ish."""

    fair: bool
    sign_sum: int
    residual_abs: float


class RootReport(NamedTuple):
    pattern: PMPattern
    roots: tuple[float, ...]


class PeriodicHit(NamedTuple):
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
        yield PMPattern._trusted(signs)


def _power_table(x: float, n: int) -> tuple[list[float], list[float]]:
    """Powers [x^0, ..., x^n] by repeated multiplication, and their prefix
    sums [S_0, ..., S_n] with S_j = x + x^2 + ... + x^j."""
    powers, sums = [1.0], [0.0]
    for _ in range(n):
        powers.append(powers[-1] * x)
        sums.append(sums[-1] + powers[-1])
    return powers, sums


def _excluded(
    k: int, a: int, b: int, p_lo: float, p_hi: float, s_lo: list[float], s_hi: list[float]
) -> bool:
    """True when every completion of a prefix keeps one sign on the window.

    The prefix holds k signs and has the values p_lo and p_hi at the window
    ends; a pluses and b minuses remain, at exponents k+1 .. n = k+a+b. The
    powers decrease, so the suffix is smallest with the minuses first,
    (S_n - S_(k+b)) - (S_(k+b) - S_k), and largest with the pluses first,
    (S_(k+a) - S_k) - (S_n - S_(k+a)).
    """
    n = k + a + b
    if (
        p_lo + s_lo[n] + s_lo[k] - 2.0 * s_lo[k + b] > TOL
        and p_hi + s_hi[n] + s_hi[k] - 2.0 * s_hi[k + b] > TOL
    ):
        return True
    return (
        p_lo + 2.0 * s_lo[k + a] - s_lo[k] - s_lo[n] < -TOL
        and p_hi + 2.0 * s_hi[k + a] - s_hi[k] - s_hi[n] < -TOL
    )


def first_bracketed_pattern(lo: float, hi: float, max_degree: int) -> Optional[PMPattern]:
    """First balanced pattern of degree <= max_degree, by degree and then
    lexicographically ('+' < '-'), that changes sign on [lo, hi].

    A pattern counts when ``eval_pm`` at lo and at hi differ in sign or
    either is exactly zero; None means no pattern does. Each degree n is
    searched depth first over sign prefixes, '+' before '-', so the first
    leaf that passes is the first hit of the enumeration order. A prefix is
    dropped when the smallest completion exceeds ``core.TOL`` at both ends,
    or the largest stays below -``core.TOL`` at both (:func:`_excluded`);
    the extremes come from one table of power sums per window end, built
    once per call.

    Soundness: for 0 < x <= 2/3 and degree <= 64, the powers, their sums,
    the prefix values and ``eval_pm``'s Horner value each lie within about
    64 * 2^-52 * x/(1-x) <= 3e-14 of their exact values (below 2e-14 in the
    open window), so a bound made of four of them errs by less than 2e-13,
    and with the Horner error still far less than ``core.TOL`` = 1e-12. A
    dropped prefix therefore has only completions whose float values at lo
    and at hi share one nonzero sign: the enumeration would reject every
    one of them, and the result is the enumeration's first hit.

    Raises InputError before any node is visited when max_degree exceeds
    :data:`MAX_MEMBERSHIP_DEGREE`, and once more than
    :data:`MAX_MEMBERSHIP_NODES` nodes have been visited; DomainError unless
    0 < lo < hi <= 2/3.
    """
    if max_degree > MAX_MEMBERSHIP_DEGREE:
        raise InputError(
            f"membership search degree {max_degree} exceeds the cap of "
            f"{MAX_MEMBERSHIP_DEGREE}; choose a smaller degree"
        )
    if not 0.0 < lo < hi <= 2.0 / 3.0:  # the rounding argument needs x <= 2/3
        raise DomainError(f"membership window [{lo!r}, {hi!r}] must lie in (0, 2/3]")
    pw_lo, s_lo = _power_table(lo, max_degree)
    pw_hi, s_hi = _power_table(hi, max_degree)
    signs: list[int] = []
    visited = 0

    def search(a: int, b: int, p_lo: float, p_hi: float) -> Optional[PMPattern]:
        nonlocal visited
        visited += 1
        if visited > MAX_MEMBERSHIP_NODES:
            raise InputError(
                f"membership search up to degree {max_degree} visited more than "
                f"{MAX_MEMBERSHIP_NODES:,} prefix nodes; choose a smaller degree"
            )
        k = len(signs)
        if _excluded(k, a, b, p_lo, p_hi, s_lo, s_hi):
            return None
        if not (a or b):
            pattern = PMPattern._trusted(signs)
            f_lo, f_hi = eval_pm(pattern, lo), eval_pm(pattern, hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
                return pattern
            return None
        hit = None
        if a:
            signs.append(1)
            hit = search(a - 1, b, p_lo + pw_lo[k + 1], p_hi + pw_hi[k + 1])
            signs.pop()
        if b and hit is None:
            signs.append(-1)
            hit = search(a, b - 1, p_lo - pw_lo[k + 1], p_hi - pw_hi[k + 1])
            signs.pop()
        return hit

    for n in range(2, max_degree + 1, 2):
        hit = search(n // 2, n // 2, 0.0, 0.0)
        if hit is not None:
            return hit
    return None


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


def _isolate(q: list[int]) -> list[tuple[int, int]]:
    """Vincent-Collins-Akritas bisection of a squarefree q on (0, 1).

    A node (c, k, p) stands for the interval (c/2^k, (c+1)/2^k), with p(x)
    a positive multiple of q((c + x)/2^k). By Descartes' rule the sign
    changes of (1+x)^d p(1/(1+x)) bound the node's roots and have their
    parity: none means no root, one means exactly one. Returns the
    isolating intervals as (c, k). q must have no dyadic root in (0, 1):
    a root on a bisection midpoint would belong to neither half.
    """
    d = len(q) - 1
    intervals: list[tuple[int, int]] = []
    stack = [(0, 0, q)]
    while stack:
        c, k, p = stack.pop()
        changes = _sign_changes(_shift_by_one(p[::-1]))
        if changes == 1:
            intervals.append((c, k))
        elif changes > 1:
            left = [a << (d - i) for i, a in enumerate(p)]  # 2^d p(x/2)
            stack.append((2 * c + 1, k + 1, _shift_by_one(left)))  # 2^d p((1+x)/2)
            stack.append((2 * c, k + 1, left))
    return intervals


def _unit_interval_roots(q: list[int]) -> list[float]:
    """Sorted roots in (0, 1) of an integer polynomial with q(0), q(1) != 0
    and no dyadic root in (0, 1).

    Each root is reported once whatever its multiplicity: isolation runs on
    the squarefree part q / gcd(q, q'), and each root is bisected to width
    <= ``core.TOL`` on that part's exact sign. Every pattern cofactor meets
    the precondition: its constant and leading coefficients are +-1, so are
    those of its squarefree part (Gauss's lemma), and by the rational root
    theorem its only rational roots are +-1.
    """
    if len(q) < 2:
        return []
    q = _exact_quotient(q, _poly_gcd(q, [i * c for i, c in enumerate(q)][1:]))
    roots = [
        bisect_root(lambda x: _scaled_value(q, x), c / (1 << k), (c + 1) / (1 << k), TOL)
        for c, k in _isolate(q)
    ]
    return sorted(roots)


def pattern_roots(pattern: PMPattern) -> RootReport:
    """Locate roots of ``pattern`` in (0, 1) by exact isolation plus bisection.

    Divides the pattern by x and by (1-x) as often as it vanishes at 1,
    which leaves an integer cofactor nonzero at both ends, isolates the
    cofactor's roots in (0, 1) and bisects each to width <= ``core.TOL``.
    Every root is reported once, in increasing order: the isolating
    intervals are disjoint and lie in (0, 1), and no root is dyadic, so each
    bisected root lies strictly inside its own interval. An empty root list
    is a perfectly normal outcome.
    """
    cofactor = list(as_signs(pattern))  # the pattern divided by x
    if not cofactor:
        raise InputError("cannot find roots of an empty sign sequence")
    while sum(cofactor) == 0:  # divide by (1 - x): prefix sums
        cofactor = list(accumulate(cofactor))[:-1]
    return RootReport(pattern=pattern, roots=tuple(_unit_interval_roots(cofactor)))


def min_period_search(max_N: int) -> dict[int, list[PeriodicHit]]:
    """Search every period length N <= max_N for patterns with roots in (0, 1).

    Odd N carry an empty list (no balanced pattern exists). The enumeration
    order is deterministic, so the output is reproducible; no claim of having
    listed every fair division is made beyond the searched degrees. Raises
    InputError before enumerating anything when the largest even degree
    searched exceeds :data:`MAX_SEARCH_DEGREE` (so 19 is admitted).
    """
    if max_N < 2:
        raise InputError(f"max_N must be at least 2, got {max_N!r}")
    if max_N // 2 * 2 > MAX_SEARCH_DEGREE:
        raise InputError(
            f"periodic search degree {max_N} exceeds the cap of "
            f"{MAX_SEARCH_DEGREE}; choose a smaller degree"
        )
    results: dict[int, list[PeriodicHit]] = {}
    for n in range(1, max_N + 1):
        hits: list[PeriodicHit] = []
        if n % 2 == 0:
            for pattern in enumerate_balanced(n):
                report = pattern_roots(pattern)
                if report.roots:
                    partner = pattern.negated().to_text()
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
