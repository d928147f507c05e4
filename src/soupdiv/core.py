"""Shared vocabulary: sign sequences, balanced plus-minus patterns, geometric tails.

A division of scoops between two plates is a sequence of signs (+1 for plate
"+", -1 for plate "-"), indexed from scoop 1. Everything downstream (greedy
pairing, periodic search, covering certificates, the simulator) speaks in
terms of two prefix quantities:

* the sign sum   sum_{i<=k} s_i         (whole-scoop imbalance),
* the residual   sum_{i<=k} s_i * q^i   (surface-stuff imbalance, up to a
  constant factor that the simulator makes explicit).

There is one sign type, :class:`PMPattern`, for balanced sequences: the
periodic patterns, and the divisions that the greedy pairing and the block
construction build. It is a tuple of +1/-1 that checks its balance when
built. Any other finite division is a plain tuple of +1/-1; :func:`as_signs`
accepts either, or a '+'/'-' string, and returns a pattern, or a tuple of
int +1/-1, as it is.

Patterns are written as strings of '+' and '-' with the leftmost character
at exponent 1, e.g. "+---++". The Unicode minus sign is accepted on input;
output always uses the ASCII hyphen.

Arithmetic is double precision, except for the exact integer polynomial
signs of :mod:`soupdiv.poly`; every float polynomial value comes from one
Horner loop, :func:`_horner`, and every tolerance is declared once, below:

* ``TOL`` -- additive slack at unit scale. A value counts as zero, and an
  inequality between quantities of order one counts as holding, within it.
  It is the certificate slack, the greedy admission band below 1/sqrt(2),
  and the default bisection width of roots.
* ``TRACE_TOL_PER_SCOOP`` -- rounding budget of a simulated trace: after k
  scoops an envelope comparison allows k times this much.
* ``ROOT_MATCH_WINDOW`` -- half-width of the window around q in which
  ``sim.classify`` looks for a sign change of a balanced pattern.
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat
from typing import Callable, Iterable, Sequence, Union

# Numerical policy: the only tolerances in the package (see module docstring).
TOL = 1e-12
TRACE_TOL_PER_SCOOP = 1e-15
ROOT_MATCH_WINDOW = 1e-9

_SIGN_BY_CHAR = {"+": 1, "-": -1, "−": -1}


class DomainError(ValueError):
    """A numeric argument lies outside its mathematical domain."""


class InputError(ValueError):
    """Structurally invalid input: bad sign characters, mismatched lengths, ..."""


def require_unit_open(q: float) -> None:
    """Validate q in the open interval (0, 1); rejects NaN as a side effect."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie strictly between 0 and 1, got {q!r}")


def parse_signs(text: str) -> tuple[int, ...]:
    """Parse a '+'/'-' string into a tuple of +1/-1 integers."""
    signs = []
    for pos, ch in enumerate(text.strip()):
        sign = _SIGN_BY_CHAR.get(ch)
        if sign is None:
            raise InputError(f"invalid sign character {ch!r} at position {pos}")
        signs.append(sign)
    return tuple(signs)


def signs_to_text(signs: Iterable[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _validated_signs(signs: Iterable[int]) -> tuple[int, ...]:
    """The signs as a tuple of int +1/-1, each checked as given, so 1.5 or
    '1' is refused rather than truncated or parsed. True and 1.0 equal 1
    and are accepted, stored as int; a tuple of ints is returned as it is."""
    signs = tuple(signs)
    for pos, s in enumerate(signs):
        if s not in (1, -1):
            raise InputError(f"sign at position {pos} must be +1 or -1, got {s!r}")
    return signs if {*map(type, signs)} <= {int} else tuple(map(int, signs))


class PMPattern(tuple):
    """A balanced plus-minus pattern: signs for exponents 1..n with sum zero.

    The pattern is the tuple of its signs, so it compares equal to that
    tuple and indexes, slices and hashes like it. Balance (equal counts of
    '+' and '-', equivalently value zero at q=1) is enforced at
    construction, so the degree is always even. There is no constant term;
    the leftmost sign belongs to exponent 1. The greedy pairing and the
    block construction return their divisions as patterns too: both are
    balanced by construction, the sign of scoop i being ``pattern[i-1]``.
    """

    __slots__ = ()

    def __new__(cls, signs: Iterable[int]) -> "PMPattern":
        signs = _validated_signs(signs)
        if not signs:
            raise InputError("pattern must be nonempty")
        if sum(signs) != 0:
            raise InputError(
                f"pattern {signs_to_text(signs)!r} is not balanced "
                f"(sign sum {sum(signs)}, must be 0)"
            )
        return tuple.__new__(cls, signs)

    @classmethod
    def _trusted(cls, signs: Iterable[int]) -> "PMPattern":
        """Skip validation, for callers whose signs are +1/-1 and balanced by
        construction; every other caller goes through ``PMPattern(...)``."""
        return tuple.__new__(cls, signs)

    @classmethod
    def from_text(cls, text: str) -> "PMPattern":
        return cls(parse_signs(text))

    @property
    def signs(self) -> tuple[int, ...]:
        """The signs as a tuple: the pattern itself."""
        return self

    def to_text(self) -> str:
        return signs_to_text(self)

    @property
    def degree(self) -> int:
        return len(self)

    def negated(self) -> "PMPattern":
        """The plate-swapped pattern (every sign flipped), which is balanced
        whenever this one is, so it skips re-validation."""
        return PMPattern._trusted(map(operator.neg, self))

    def __repr__(self) -> str:
        return f"PMPattern(signs={tuple.__repr__(self)})"


Signs = Union[PMPattern, str, Sequence[int]]


def as_signs(value: Signs) -> tuple[int, ...]:
    """Coerce any accepted sign-sequence form into a tuple of +1/-1."""
    if isinstance(value, PMPattern):
        return value
    if isinstance(value, str):
        return parse_signs(value)
    return _validated_signs(value)


def _horner(coeffs: Sequence[float], x: float) -> float:
    """Horner's rule for ``coeffs``, highest power first, at x; unchecked."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def eval_pm(pattern: Signs, q: float) -> float:
    """Evaluate sum_{i=1}^{n} signs[i] * q^i by Horner's rule (:func:`_horner`)."""
    require_unit_open(q)
    signs = as_signs(pattern)
    if not signs:
        raise InputError("cannot evaluate an empty sign sequence")
    return _horner(signs[::-1], q) * q  # reversed() reads a PMPattern item by item, 2x slower


def prefix_diagnostics(seq: Signs, q: float) -> tuple[list[int], list[float]]:
    """Running sign sums and residuals for every prefix of ``seq``.

    Returns ``(sign_sums, residuals)`` where ``sign_sums[k-1]`` is the
    whole-scoop imbalance after scoop k and ``residuals[k-1]`` is
    sum_{i<=k} signs[i] * q^i, with q^i built by repeated multiplication
    and added in scoop order. The residual loop stops after the first
    scoop whose power p leaves the residual r unchanged both ways
    (``r + p == r`` and ``r - p == r``): later powers are no larger and
    rounding is monotone, so no later scoop can move r, and the rest of the
    column is r itself, bit for bit.
    """
    require_unit_open(q)
    signs = as_signs(seq)
    if not signs:
        raise InputError("cannot diagnose an empty sign sequence")
    residuals: list[float] = []
    residual = 0.0
    power = 1.0
    for s in signs:
        power *= q
        residual += s * power
        residuals.append(residual)
        if residual + power == residual and residual - power == residual:
            break
    residuals.extend(repeat(residual, len(signs) - len(residuals)))
    return list(accumulate(signs)), residuals


def geometric_tail(q: float, k: int) -> float:
    """Closed form of the tail sum_{i>k} q^i = q^(k+1) / (1-q)."""
    require_unit_open(q)
    if k < 0:
        raise InputError(f"k must be a nonnegative integer, got {k!r}")
    return q ** (k + 1) / (1.0 - q)


def bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of f in the sign bracket [lo, hi] by bisection to width <= tol.

    An exact zero at ``lo`` or at a midpoint is returned as is; otherwise the
    result is the midpoint of the final bracket.
    """
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval below float resolution
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
