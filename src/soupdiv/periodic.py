"""Periodic divisions: exhaustive pattern enumeration and root search.

A division that repeats a block of N signs forever is fair exactly when the
block is balanced (sign sum zero) and its residual sum_{i<=N} s_i q^i
vanishes, i.e. when q is a root of the corresponding balanced plus-minus
pattern. A :class:`RootReport` holds a pattern and its roots in (0, 1).
:func:`min_period_search` scans all balanced patterns degree by degree for
roots inside (0, 1); the smallest degree with any hit is 6 (e.g. "+---++"
at the inverse golden ratio).

Roots are isolated exactly on integer coefficients. A balanced pattern is
x * (1-x)^m * Q(x) with Q integer and nonzero at 0 and 1, and
:func:`poly.unit_interval_roots` finds the roots of Q in (0, 1) with no
decision left to float rounding. Q and its squarefree part have +-1 as
constant and leading coefficients, so neither has a rational root in
(0, 1). No root therefore lies on a dyadic bisection midpoint or on any
other double: no periodic division is exactly fair at a double q.
Rotated patterns are distinct periodic divisions and are searched
separately; the global negation of a pattern has the same roots (plate
swap), so the search computes the roots once per negation pair.

:func:`min_period_search` screens every balanced pattern that opens with
'+', a count that grows like 2^n/sqrt(n) in the degree, so it refuses
degrees above :data:`MAX_SEARCH_DEGREE` up front. Each pattern is packed
into one integer whose base-2^(n+1) digits are its Descartes coefficients
(:func:`_packing`), and one AND with a mask decides whether Descartes'
rule allows a root in (0, 1); only the patterns that pass go to
:func:`pattern_roots`, about one in five at degree 8, with the count of
sign changes read from the same digits.

The open-window branch of ``sim.classify`` asks a narrower question: which
is the first balanced pattern that changes sign on a short window around q?
:func:`first_bracketed_pattern` answers it by a depth-first search over sign
prefixes that drops every prefix whose completions all keep one sign on the
window; at degree 12 it visits about 70 nodes, where enumerating would
evaluate 1,274 patterns. It runs as one loop over an explicit stack, which
leaves no reference cycle, refuses degrees above :data:`MAX_MEMBERSHIP_DEGREE`
up front and stops after :data:`MAX_MEMBERSHIP_NODES` visited nodes. Leaves
are tested by the unchecked ``core._horner``; only the hit becomes a pattern.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations, repeat
from typing import Iterator, NamedTuple, Optional

from .core import TOL, DomainError, InputError, PMPattern, _horner, as_signs
from .poly import unit_interval_roots

# Largest degree min_period_search screens: 66,196 balanced patterns
# through degree 18 (0.4 s, or 0.7 s for `periodic-search` with its JSON
# output, on one Xeon core with Python 3.11), 250,952 through 20.
MAX_SEARCH_DEGREE = 18

# Limits of first_bracketed_pattern: the largest degree it searches (its
# rounding argument assumes at most 64 terms) and the most prefix nodes one
# call may visit. Over 10,000 seeded q in the open window the worst call
# visits about 7,100 nodes at degree 64.
MAX_MEMBERSHIP_DEGREE = 64
MAX_MEMBERSHIP_NODES = 100_000


class RootReport(NamedTuple):
    """A pattern and its roots in (0, 1), in increasing order."""

    pattern: PMPattern
    roots: tuple[float, ...]


def enumerate_balanced(n: int) -> Iterator[PMPattern]:
    """Yield all balanced patterns of degree n in lexicographic order ('+' < '-').

    There are C(n, n/2) of them for even n and none for odd n. No search
    here calls it, but it stays: the tests use it as the reference
    enumeration, and a traced benchmark run (``soupbench/run.py --trace 1``)
    looks up its span by name.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"degree must be a positive integer, got {n!r}")
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

    A pattern counts when its values at lo and at hi differ in sign or
    either is exactly zero; None means no pattern does. Its value is
    ``core._horner`` on its signs, the pattern divided by x, which has
    ``eval_pm``'s signs and zeros: Horner's last step adds +-1, so a nonzero
    value is at least 2^-53 and cannot underflow times x. Each degree n is
    searched depth first over sign prefixes, '+' before '-', so the first
    leaf that passes is the first hit of the enumeration order. It is one
    loop over an explicit stack, with no nested function to refer to itself,
    so a call leaves no reference cycle for the cyclic garbage collector. A
    prefix is dropped when the smallest completion exceeds ``core.TOL`` at
    both ends, or the largest stays below -``core.TOL`` at both
    (:func:`_excluded`); the extremes come from one table of power sums per
    window end, built once per call.

    Soundness: for 0 < x <= 2/3 and degree <= 64, the powers, their sums,
    the prefix values and x times the Horner value each lie within about
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
    signs = [0]  # signs[k] is the sign at exponent k; signs[0] is a placeholder
    visited = 0
    for n in range(2, max_degree + 1, 2):
        # a node: its last sign (0 at the root), the pluses and minuses left,
        # and the prefix values at lo and hi; '-' is pushed first, so '+' is
        # searched first, as the enumeration orders them
        stack = [(0, n // 2, n // 2, 0.0, 0.0)]
        while stack:
            s, a, b, p_lo, p_hi = stack.pop()
            visited += 1
            if visited > MAX_MEMBERSHIP_NODES:
                raise InputError(
                    f"membership search up to degree {max_degree} visited more than "
                    f"{MAX_MEMBERSHIP_NODES:,} prefix nodes; choose a smaller degree"
                )
            k = n - a - b
            signs[k:] = (s,)
            if _excluded(k, a, b, p_lo, p_hi, s_lo, s_hi):
                continue
            if not (a or b):
                descending = signs[:0:-1]
                f_lo, f_hi = _horner(descending, lo), _horner(descending, hi)
                if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
                    return PMPattern._trusted(signs[1:])
                continue
            if b:
                stack.append((-1, a, b - 1, p_lo - pw_lo[k + 1], p_hi - pw_hi[k + 1]))
            if a:
                stack.append((1, a - 1, b, p_lo + pw_lo[k + 1], p_hi + pw_hi[k + 1]))
    return None


def pattern_roots(pattern: PMPattern, *, changes: Optional[int] = None) -> RootReport:
    """Locate roots of ``pattern`` in (0, 1) by exact isolation plus bisection.

    Divides the pattern by x and by (1-x) as often as it vanishes at 1,
    which leaves an integer cofactor nonzero at both ends, isolates the
    cofactor's roots in (0, 1), with one Descartes count for most
    cofactors, and bisects each to width <= ``core.TOL`` on an exact sign
    that a float Horner value gives wherever its error bound allows; a
    caller that knows that count passes it as ``changes`` (2 for more).
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
    return RootReport(pattern=pattern, roots=tuple(unit_interval_roots(cofactor, changes)))


def min_period_search(max_N: int) -> dict[int, list[RootReport]]:
    """Search every period length N <= max_N for patterns with roots in (0, 1).

    Each degree maps to the reports that have roots, in the lexicographic
    order of :func:`enumerate_balanced`; odd N carry an empty list (no
    balanced pattern exists). The order is deterministic, so the output is
    reproducible; no claim of having listed every fair division is made
    beyond the searched degrees. Roots are computed once per negation pair,
    for the patterns that open with '+' and pass the packed Descartes screen
    (:func:`_screened_hits`); the second half of the order holds their
    negations, in reverse order. Raises InputError before enumerating
    anything when max_N is not an integer of at least 2, or when the largest
    even degree searched exceeds :data:`MAX_SEARCH_DEGREE` (so 19 is
    admitted).
    """
    if not isinstance(max_N, int) or max_N < 2:
        raise InputError(f"periodic search degree {max_N!r} must be an integer of at least 2")
    if max_N // 2 * 2 > MAX_SEARCH_DEGREE:
        raise InputError(
            f"periodic search degree {max_N} exceeds the cap of "
            f"{MAX_SEARCH_DEGREE}; choose a smaller degree"
        )
    results: dict[int, list[RootReport]] = {}
    for n in range(1, max_N + 1):
        hits = _screened_hits(n) if n % 2 == 0 else []
        # Negation reverses the lexicographic order, so the second half
        # holds the negations of the first, in reverse order.
        results[n] = hits + [RootReport(hit.pattern.negated(), hit.roots) for hit in reversed(hits)]
    return results


@cache
def _packing(n: int) -> tuple[tuple[int, ...], int]:
    """Kronecker packing of the degree-n patterns for Descartes' rule.

    The pattern divided by x is R(x) = sum_i s_i x^i, i < n. Returns the
    powers Y^(n-1-i) of Y = 2^w + 1 with w = n + 1, so that a pattern packs
    into V = sum_i s_i Y^(n-1-i), and ``high``, the top bit of each of the n
    base-2^w digits. As Y^k = sum_j C(k, j) 2^(wj), the digits of V are the
    coefficients T_j = sum_i s_i C(n-1-i, j) of (1+t)^(n-1) R(1/(1+t)), and
    |T_j| <= C(n, j+1) < 2^(w-1), so no digit overflows (Kronecker
    substitution; von zur Gathen and Gerhard, "Fast algorithms for Taylor
    shifts", ISSAC 1997). Adding ``high`` biases every digit into
    (0, 2^w) with no carry, and its top bit is then clear exactly when
    T_j < 0. For a pattern that opens with '+', T_(n-1) = +1, so the T_j
    change sign exactly when one is negative: ``(V + high) & high == high``
    holds exactly when Descartes' rule counts no root in (0, 1). With
    R = (1-x)^m Q the T_j are those of the cofactor Q shifted by m places,
    so their sign changes are the count :func:`pattern_roots` makes on Q.
    Built once per degree.
    """
    w = n + 1
    y = (1 << w) + 1
    powers = tuple(y ** (n - 1 - i) for i in range(n))
    high = sum(1 << (w * j + w - 1) for j in range(n))
    return powers, high


def _digit_changes(biased: int, n: int) -> int:
    """Sign changes, up to 2, of the digits T_j of a packed pattern that
    opens with '+', from its biased value V + ``high`` (:func:`_packing`).

    A biased digit b = T_j + 2^n has its top bit clear exactly when
    T_j < 0, and b - 1 (no borrow, as b >= 1) has it set exactly when
    T_j > 0. The top digit T_(n-1) is +1, so the T_j change sign once
    exactly when every negative digit lies below every positive one.
    """
    high = _packing(n)[1]
    negative, positive = high & ~biased, high & (biased - (high >> n))
    return 0 if not negative else 1 if negative < positive & -positive else 2


def _screened_hits(n: int) -> list[RootReport]:
    """Reports with roots of the degree-n balanced patterns that open with
    '+', in lexicographic order: the first half of :func:`enumerate_balanced`.

    Each pattern's biased value V + ``high`` (:func:`_packing`) is that of
    '+-...-' plus twice the powers at its other '+' positions, summed over
    index combinations in lexicographic order; only the patterns whose
    value fails the no-root test reach :func:`pattern_roots`, with the
    count of their digits' sign changes.
    """
    powers, high = _packing(n)
    base = powers[0] - sum(powers[1:]) + high  # '+' first, '-' elsewhere
    doubled = [2 * power for power in powers[1:]]  # turning a '-' into a '+'
    half = n // 2 - 1
    hits: list[RootReport] = []
    biased_values = map(sum, combinations(doubled, half), repeat(base))
    for plus, biased in zip(combinations(range(1, n), half), biased_values):
        if biased & high != high:
            signs = [-1] * n
            signs[0] = 1
            for pos in plus:
                signs[pos] = 1
            report = pattern_roots(PMPattern._trusted(signs), changes=_digit_changes(biased, n))
            if report.roots:
                hits.append(report)
    return hits
