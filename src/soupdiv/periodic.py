"""Periodic divisions: fairness test, exhaustive pattern enumeration, root search.

A division that repeats a block of N signs forever is fair exactly when the
block is balanced (sign sum zero) and its residual sum_{i<=N} s_i q^i
vanishes, i.e. when q is a root of the corresponding balanced plus-minus
pattern. :func:`min_period_search` scans all balanced patterns degree by
degree for roots inside (0, 1); the smallest degree with any hit is 6
(e.g. "+---++" at the inverse golden ratio).

Root isolation is deliberately plain: sample on a fixed fine grid, bisect
every sign change. Rotated patterns are distinct periodic divisions and are
searched separately; the global negation of a hit is always a hit with the
same roots (plate swap), so each hit records its negation partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .core import (
    EvalOptions,
    InputError,
    PMPattern,
    Signs,
    as_signs,
    bisect_root,
    eval_pm,
    require_unit_open,
    signs_to_text,
)

DEFAULT_GRID = 4096
DEFAULT_ROOT_TOL = 1e-12


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


def classify_periodic(
    pattern: Signs, q: float, opts: EvalOptions = EvalOptions()
) -> PeriodicVerdict:
    """Decide fairness of the periodic division that repeats ``pattern``."""
    require_unit_open(q)
    signs = as_signs(pattern)
    if not signs:
        raise InputError("period must be nonempty")
    sign_sum = sum(signs)
    residual_abs = abs(eval_pm(signs, q))
    fair = sign_sum == 0 and residual_abs <= opts.zero_tol
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
        yield PMPattern(tuple(signs))


def pattern_roots(
    pattern: PMPattern,
    grid: int = DEFAULT_GRID,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> RootReport:
    """Locate roots of ``pattern`` in (0, 1) by grid sampling plus bisection.

    Samples grid+1 equispaced points in [d, 1-d] with d = 1/(2*grid), bisects
    every sign-change bracket to width <= root_tol, deduplicates within
    2*root_tol, and discards roots within 2*root_tol of either endpoint.
    An empty root list is a perfectly normal outcome.
    """
    if grid < 2:
        raise InputError(f"grid must be at least 2, got {grid!r}")
    if not root_tol > 0.0:
        raise InputError(f"root_tol must be positive, got {root_tol!r}")

    def f(x: float) -> float:
        return eval_pm(pattern, x)

    delta = 1.0 / (2.0 * grid)
    span = 1.0 - 2.0 * delta
    xs = [delta + j * span / grid for j in range(grid + 1)]
    values = [f(x) for x in xs]

    found: list[float] = []
    for j in range(grid + 1):
        if values[j] == 0.0:
            found.append(xs[j])
        elif j < grid and values[j + 1] != 0.0 and (values[j] < 0.0) != (values[j + 1] < 0.0):
            found.append(bisect_root(f, xs[j], xs[j + 1], root_tol))

    found.sort()
    roots: list[float] = []
    for r in found:
        if r < 2.0 * root_tol or r > 1.0 - 2.0 * root_tol:
            continue
        if roots and r - roots[-1] <= 2.0 * root_tol:
            continue
        roots.append(r)
    return RootReport(pattern=pattern, roots=tuple(roots))


def min_period_search(
    max_N: int,
    grid: int = DEFAULT_GRID,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> dict[int, list[PeriodicHit]]:
    """Search every period length N <= max_N for patterns with roots in (0, 1).

    Odd N carry an empty list (no balanced pattern exists). The enumeration
    order is deterministic, so the output is reproducible; no claim of having
    listed every fair division is made beyond the searched degrees.
    """
    if max_N < 2:
        raise InputError(f"max_N must be at least 2, got {max_N!r}")
    results: dict[int, list[PeriodicHit]] = {}
    for n in range(1, max_N + 1):
        hits: list[PeriodicHit] = []
        if n % 2 == 0:
            for pattern in enumerate_balanced(n):
                report = pattern_roots(pattern, grid=grid, root_tol=root_tol)
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
