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
    Prefix sign sums stay in {-1, 0, +1}. The residual after 2k scoops is
    bounded by q^(2k+1)/(1+q) in double precision only: an exact walk of
    the same signs first breaks that bound at scoop 110, 166 and 362 for
    q = 0.71, 0.75, 0.9 (see the README's Numerical policy). Every pair is
    balanced, so the division is returned as a :class:`core.PMPattern`
    without re-validating its signs.

    The pairs are computed one by one only until the residual settles: the
    loop stops at the first pair whose gap g = q^e * (1-q) leaves the
    residual unchanged, r -/+ g == r, and repeats that pair for the rest.
    Each later gap is no larger, since the exact powers q^e shrink by the
    factor q^2 from pair to pair and ``pow`` rounds them to the nearest
    double in practice (its error bound is just over half an ulp), and
    rounding is monotone, so a smaller gap cannot move r either; with r
    unchanged every later pair is the same pair. This covers a residual of
    0.0 whose gap has underflowed. The first repeated pair ends at scoop
    2,150, 2,586, 7,052 and 73,684 for q = 0.7072, 0.75, 0.9 and 0.99, far
    past the first exact break above, so the repeated tail is a float
    artefact, not a proof.
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
            pair = (-1, 1)
            new = residual - q**e * one_minus_q
        else:
            pair = (1, -1)
            new = residual + q**e * one_minus_q
        if new == residual:
            signs += pair * ((n_scoops - e + 1) // 2)
            break
        signs += pair
        residual = new
    return PMPattern._trusted(signs)
