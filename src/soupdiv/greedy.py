"""Greedy paired division of the geometric series, for q >= 1/sqrt(2).

Scoops are paired (1,2), (3,4), ...; pair k sends its earlier scoop to the
plate named by the pair sign, so it adds sign * b_k to the residual, with
gap ``b_k = q^(2k-1) * (1-q)``. The sum of all later gaps is the tail
``tail_k = q^(2k+1) / (1+q)``. Choosing each pair sign against the running
residual keeps |r_2k| <= tail_k for every k as long as every gap is at most
its tail, b_k <= tail_k, which reduces to (1-q)(1+q) <= q^2, i.e.
q >= 1/sqrt(2). That threshold is where :func:`geometric_fair_division`
stops; smaller q needs the covering certificates in :mod:`soupdiv.approx`.
Decimal entries of 1/sqrt(2) a little below the float ``INV_SQRT2`` are
admitted within ``core.TOL``; in that band a gap can exceed its tail by
about ``core.TOL``, and the residual bound holds only up to that excess.
"""

from __future__ import annotations

import math

from .core import TOL, DomainError, InputError, PMPattern, require_unit_open

INV_SQRT2 = math.sqrt(0.5)


def in_greedy_regime(q: float) -> bool:
    """The one admission test of the greedy regime, q >= 1/sqrt(2) - TOL,
    shared by :func:`geometric_fair_division` and ``sim.classify``."""
    return q >= INV_SQRT2 - TOL


def geometric_fair_division(q: float, n_scoops: int) -> PMPattern:
    """Greedy scoop division for q >= 1/sqrt(2), paired as (+,-) / (-,+).

    Pair k covers scoops 2k-1 and 2k; a pair sign of +1 sends the earlier
    scoop to plate '+', a pair sign of -1 the reverse. The pair sign is '-'
    when the running residual is strictly positive and '+' otherwise, so the
    division opens with "+-" and a longer division extends a shorter one.
    Prefix sign sums stay in {-1, 0, +1} and the residual after 2k scoops
    is bounded by q^(2k+1)/(1+q). Every pair is balanced, so the division is
    returned as a :class:`core.PMPattern` without re-validating its signs.
    """
    require_unit_open(q)
    if not in_greedy_regime(q):
        raise DomainError(
            f"q={q!r} is below the greedy threshold 1/sqrt(2)={INV_SQRT2!r}; "
            "for smaller q use a covering certificate construction "
            "(soupdiv.approx.construct_bounded)"
        )
    if not isinstance(n_scoops, int) or n_scoops < 2 or n_scoops % 2 != 0:
        raise InputError(f"n_scoops must be a positive even integer, got {n_scoops!r}")
    signs: list[int] = []
    residual = 0.0
    one_minus_q = 1.0 - q
    for e in range(1, n_scoops, 2):  # e = 2k - 1 for pair k
        if residual > 0.0:
            signs += (-1, 1)
            residual -= q**e * one_minus_q
        else:
            signs += (1, -1)
            residual += q**e * one_minus_q
    return PMPattern._trusted(signs)
