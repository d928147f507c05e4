"""Exact integer polynomials: lists of ``int`` coefficients in ascending
order of power, so [-1, 0, 1] is x^2 - 1, with exact signs and roots.

:func:`exact_sign` trusts a float Horner value (``core._horner``) only
where its error bound proves the sign. :func:`unit_interval_roots`
screens with one Descartes count, which a caller may pass in, and splits
harder cases by Vincent-Collins-Akritas bisection (Collins and Akritas,
1976). Each root is the float that bisection to ``core.TOL`` on the exact
sign returns: the midpoint of the dyadic cell where it ends. A safeguarded
float Newton estimate names the cell, and the exact sign at its two ends
either confirms it, giving its midpoint at once, or sends the bisection
back to the isolating interval. No decision depends on float rounding.
"""

from __future__ import annotations

import sys
from math import frexp, gcd, ldexp
from typing import Callable, Optional

from .core import TOL, _horner, bisect_root


def primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    g = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // g for c in p]


def pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
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


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of a and b (deg a >= deg b >= 0) by primitive remainders."""
    a, b = primitive(a), primitive(b)
    while len(b) > 1:
        r = pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, primitive(r)
    return [1]


def exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over the integers."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        out[i] = top = r[i + db] // lead
        for j, c in enumerate(b):
            r[i + j] -= top * c
    return out


def shift_by_one(p: list[int]) -> list[int]:
    """Coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def sign_changes(p: list[int]) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def scaled_value(p: list[int], x: float) -> int:
    """den^deg(p) * p(x) for x = num/den exactly: a positive multiple of p(x)."""
    num, den = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def exact_sign(q: list[int]) -> Callable[[float], float]:
    """A function of x in [0, 1] that has the sign of q(x), zero included.

    It returns the float Horner value of q(x) when that exceeds
    4 (d+1) u sum|c_i| in magnitude, for degree d and unit roundoff u, and
    the exact :func:`scaled_value` otherwise. With every |c_i| < 2^53 the
    coefficients are exact floats, and for 0 <= x <= 1 the Horner error is
    at most gamma_2d sum|c_i| (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 5.3), no more than half the bound; the other half covers
    the rounding of the bound itself and any underflow. A value past the
    bound therefore has the sign of q(x). Larger coefficients always take
    the exact value.
    """
    floats = _horner_filter(q)
    if floats is None:
        return lambda x: scaled_value(q, x)
    return lambda x: _filtered_sign(q, *floats, x)


def _horner_filter(q: list[int]) -> Optional[tuple[list[float], float]]:
    """q's float coefficients in descending order and the bound 4 (d+1) u
    sum|c_i| of :func:`exact_sign`; None unless every |c_i| < 2^53."""
    if max(map(abs, q)) >= 1 << 53:
        return None
    coeffs = [float(c) for c in reversed(q)]
    return coeffs, 4 * len(q) * (sys.float_info.epsilon / 2) * sum(map(abs, q))


def _filtered_sign(q: list[int], coeffs: list[float], bound: float, x: float) -> float:
    """:func:`exact_sign` at x, from :func:`_horner_filter`'s output."""
    value = _horner(coeffs, x)
    return value if abs(value) > bound else scaled_value(q, x)


def isolate(q: list[int]) -> list[tuple[int, int]]:
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
        changes = sign_changes(shift_by_one(p[::-1]))
        if changes == 1:
            intervals.append((c, k))
        elif changes > 1:
            left = [a << (d - i) for i, a in enumerate(p)]  # 2^d p(x/2)
            stack.append((2 * c + 1, k + 1, shift_by_one(left)))  # 2^d p((1+x)/2)
            stack.append((2 * c, k + 1, left))
    return intervals


def unit_interval_roots(q: list[int], changes: Optional[int] = None) -> list[float]:
    """Sorted roots in (0, 1) of an integer polynomial with q(0), q(1) != 0
    and no dyadic root in (0, 1).

    Each root is reported once whatever its multiplicity. The sign changes
    of (1+x)^d q(1/(1+x)) bound the roots of q in (0, 1), multiplicities
    counted, and share their parity: none means no root, and one means a
    single simple root, isolated by (0, 1) and refined on q itself. Only
    with more changes does isolation run on the squarefree part
    q / gcd(q, q'), and each root is refined on that part. A caller that
    knows the count passes it as ``changes`` (2 for any larger count).
    Each root is the float ``core.bisect_root`` returns on the sign of
    :func:`exact_sign` at width <= ``core.TOL``, taken in one pass where
    :func:`_refine` confirms its final cell. Every pattern cofactor meets
    the precondition: its constant and leading coefficients are +-1, so are
    those of its squarefree part (Gauss's lemma), and by the rational root
    theorem its only rational roots are +-1.
    """
    if changes is None:
        changes = sign_changes(shift_by_one(q[::-1]))
    if changes == 0:
        return []
    if changes == 1:
        intervals = [(0, 0)]
    else:
        q = exact_quotient(q, poly_gcd(q, [i * c for i, c in enumerate(q)][1:]))
        intervals = isolate(q)
    return sorted(_refine(q, c / (1 << k), (c + 1) / (1 << k)) for c, k in intervals)


def _newton_estimate(coeffs: list[float], lo: float, hi: float) -> float:
    """A float estimate of the one root in (lo, hi) of the polynomial with
    float coefficients ``coeffs`` in descending order: Newton steps on the
    float Horner value and derivative, safeguarded by bisection of a float
    sign bracket (rtsafe, Press et al., Numerical Recipes, 9.4). Every
    iterate stays in [lo, hi]. It stops after a bisection step of at most
    ``core.TOL`` or a Newton step of at most ``_NEWTON_STOP``. Only a guess:
    the exact signs at the ends of the cell it names confirm it or send
    :func:`_refine` back to bisection, so no output depends on where it
    stops. Its loop takes value and derivative in one pass."""
    f_lo = _horner(coeffs, lo)
    x = 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(64):
        f = df = 0.0
        for c in coeffs:
            df = df * x + f
            f = f * x + c
        if f == 0.0:
            break
        if (f < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        step_before, step = step, f / df if df else hi - lo
        # bisect when Newton leaves the bracket, or halves no step in two
        newton = lo <= x - step <= hi and abs(step) <= 0.5 * abs(step_before)
        if not newton:
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= (_NEWTON_STOP if newton else TOL):
            break
    return x


_CELL = ldexp(1.0, frexp(TOL)[1] - 1)  # the largest power of two <= TOL, 2^-40
# A stopping rule, not a tolerance: the step after one this short would be
# about 1e-16, far inside a _CELL, and no root depends on it.
_NEWTON_STOP = 1e-8


def _refine(q: list[int], lo: float, hi: float) -> float:
    """``bisect_root(exact_sign(q), lo, hi, TOL)`` for the one root of q in
    (lo, hi) = (c/2^k, (c+1)/2^k), in one pass where possible.

    On an exact sign that bisection returns the midpoint of the dyadic
    cell of width min(hi - lo, ``_CELL``) that holds the root; no root is
    dyadic, so no midpoint is zero. :func:`_newton_estimate` names a cell,
    and when the exact sign is nonzero at its two ends and differs, the
    root lies in it, as (lo, hi) holds only that root, and its midpoint is
    returned. One set of float coefficients serves the estimate and both
    signs. Otherwise, or when the coefficients are no exact floats,
    bisection runs from (lo, hi).
    """
    width = min(hi - lo, _CELL)
    floats = _horner_filter(q)
    if floats is not None:
        x = _newton_estimate(floats[0], lo, hi)
        a = lo + min(max(int((x - lo) / width), 0), round((hi - lo) / width) - 1) * width
        s_a, s_b = _filtered_sign(q, *floats, a), _filtered_sign(q, *floats, a + width)
        if s_a and s_b and (s_a < 0.0) != (s_b < 0.0):
            return a + 0.5 * width
    return bisect_root(exact_sign(q), lo, hi, TOL)
