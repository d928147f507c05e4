"""Covering certificates and the block construction of boundedly fair divisions.

The workhorse is the family of alternating balanced patterns

    pn_pattern(n) = "+" then alternating "+-" pairs then "-",   degree 2n,

whose values P_n(q) = q - q^(2n) + (q^2 - q^(2n)) / (1+q) increase to the
limit P_inf(q) = q + q^2/(1+q). A *certificate* for q is the verified fact
that the values P_1(q) <= ... <= P_N(q) cover the segment [0, A] with
A = P_N(q)/(1 - q^(2N)): every x0 in [0, A] lies within A*q^(2n) of some
P_n(q). Three inequality families make that true:

* gap:       |P_{n+1}(q) - P_n(q)| <= A * (q^(2n) + q^(2n+2)),
* base:      A * q^2 >= P_1(q),
* endpoint:  P_N(q) + A * q^(2N) >= A   (forced by the definition of A).

The gap and base families are checked in double precision with the
additive slack ``core.TOL``, the tightest exact-real inequality double
precision can certify at unit scale; the block rule of the construction
reuses the same slack. The endpoint sides are one rounding apart by the
definition of A, so that inequality is recorded but cannot fail.

The gap inequality reduces to the constant ratio (2-q-q^2)/(1+q^2) <= A,
and since A climbs to P_inf(q), certificates exist for every q above
q_infinity, the unique positive root of x^4 + x^3 + 2x^2 - 1 (about
0.5845751). The threshold :data:`Q_INF` is the largest double below it,
decided on the quartic's exact sign (:mod:`soupdiv.poly`). Below
1/sqrt(3) no single-chain family of this shape can work
(:func:`sqrt3_necessary`, decided exactly).

Given a certificate, :func:`construct_bounded` appends blocks by one rule.
With residual r after k scoops and x0 = min(|r|/q^k, A), the next block is
pn_pattern(n) for the shortest n with |x0 - P_n(q)| <= A*q^(2n) + TOL,
plate-swapped when r > 0; the residual becomes +-q^k*(x0 - P_n(q)), within
A*q^(k+2n), and the sign sum returns to zero at every block end. Greedy
pairing (:mod:`soupdiv.greedy`) is the n = 1 case. These bounds hold in
double precision only (see the README's Numerical policy).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from .core import TOL, DomainError, InputError, PMPattern, _horner, bisect_root, require_unit_open
from .poly import exact_sign

DEFAULT_N_MAX = 64

# The quartic x^4 + x^3 + 2x^2 - 1 by ascending powers, its exact sign,
# its float coefficients highest power first, and a bracket of its root.
_QINF_QUARTIC = [-1, 0, 2, 1, 1]
_QINF_SIGN = exact_sign(_QINF_QUARTIC)
_QINF_FLOATS = tuple(map(float, reversed(_QINF_QUARTIC)))
_QINF_BRACKET = (0.5, 0.6)


class CertificateError(RuntimeError):
    """No covering certificate could be produced; carries the failure detail."""

    def __init__(self, failure: "CertificateFailure"):
        self.failure = failure
        super().__init__(
            f"no covering certificate for q={failure.q!r} up to N={failure.N}: "
            f"{failure.family} inequality fails at n={failure.index} "
            f"({failure.lhs!r} vs {failure.rhs!r})"
        )


def _alternating_block(n: int, s: int = 1) -> tuple[int, ...]:
    """Signs of pn_pattern(n), plate-swapped when s = -1: s, then the pair
    (s, -s) repeated n - 1 times, then -s."""
    return (s,) + (s, -s) * (n - 1) + (-s,)


def pn_pattern(n: int) -> PMPattern:
    """Alternating balanced pattern of degree 2n: '+' at exponent 1, then
    sign (-1)^i at exponents 2..2n-1, then '-' at exponent 2n."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    return PMPattern._trusted(_alternating_block(n))


def pn_value(q: float, n: Union[int, float]) -> float:
    """Closed-form value of pn_pattern(n) at q; n=math.inf gives the limit."""
    require_unit_open(q)
    if n == math.inf:
        return q + q * q / (1.0 + q)
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer or math.inf, got {n!r}")
    q2n = q ** (2 * n)
    return q - q2n + (q * q - q2n) / (1.0 + q)


def qinf_poly(x: float) -> float:
    """The threshold quartic in floats (``core._horner``), for printed
    residuals only; its root is decided on the quartic's exact sign."""
    return _horner(_QINF_FLOATS, x)


def q_infinity(tol: float = TOL) -> float:
    """Root of the quartic in (0.5, 0.6) by bisection on its exact sign to width <= tol."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol!r}")
    return bisect_root(_QINF_SIGN, *_QINF_BRACKET, tol)


# The threshold itself, computed once at import: the largest double below
# the root. Bisection to float resolution ends on one of the two doubles
# around it (the root is irrational), so at most one step down is needed.
Q_INF = q_infinity(math.ulp(0.0))
if _QINF_SIGN(Q_INF) > 0:
    Q_INF = math.nextafter(Q_INF, 0.0)


def covering_ratio(q: float) -> float:
    """The constant (2 - q - q^2) / (1 + q^2) that every gap inequality
    reduces to; a certificate needs it to be <= A."""
    return (2.0 - q - q * q) / (1.0 + q * q)


class InequalityCheck(NamedTuple):
    """One verified inequality, stored as lhs <= rhs (ok iff it held)."""

    lhs: float
    rhs: float
    ok: bool


class CertificateChecks(NamedTuple):
    """Outcome of the three inequality families plus the two diagnostics."""

    gap: Optional[InequalityCheck]  # tightest |P_{n+1}-P_n| vs A*(q^2n + q^(2n+2)); None when N=1
    base: InequalityCheck           # P_1(q) vs A*q^2
    endpoint: InequalityCheck       # A vs P_N(q) + A*q^2N
    ratio: float                    # covering_ratio(q)
    p_limit: float                  # pn_value(q, inf)


class Certificate(NamedTuple):
    """A verified witness that the values P_1(q)..P_N(q) cover [0, A]."""

    q: float
    N: int
    A: float
    pn_values: tuple[float, ...]
    checks: CertificateChecks


class CertificateFailure(NamedTuple):
    """First violated inequality, with both sides and the diagnostics."""

    q: float
    N: int
    A: float
    family: str  # "gap" | "base"
    index: int
    lhs: float
    rhs: float
    ratio: float
    p_limit: float


def verify_certificate(q: float, N: int) -> Union[Certificate, CertificateFailure]:
    """Compute A = P_N(q)/(1 - q^(2N)) and verify the covering inequalities.

    The gap family is scanned first (ascending n), then the base inequality:
    when certification fails, the gap defect (the ratio exceeding A) is the
    informative diagnostic, while the base inequality also fails at every N
    for the same q. Both comparisons carry the additive slack ``core.TOL``.
    The endpoint bound A <= P_N(q) + A*q^(2N) is only recorded: A is
    defined as P_N(q)/(1 - q^(2N)), so its two sides differ by rounding
    alone (at most 2.2e-16 over 4,000 seeded q and N = 1..64), far below
    ``core.TOL``.
    """
    if not (0.5 < q < 1.0):
        raise DomainError(f"q must lie strictly between 1/2 and 1, got {q!r}")
    if not isinstance(N, int) or not 1 <= N <= DEFAULT_N_MAX:
        raise InputError(f"N must be an integer in 1..{DEFAULT_N_MAX}, got {N!r}")

    values = tuple(pn_value(q, n) for n in range(1, N + 1))
    A = values[-1] / (1.0 - q ** (2 * N))
    ratio = covering_ratio(q)
    p_limit = pn_value(q, math.inf)

    def failure(family: str, index: int, lhs: float, rhs: float) -> CertificateFailure:
        return CertificateFailure(
            q=q, N=N, A=A, family=family, index=index, lhs=lhs, rhs=rhs,
            ratio=ratio, p_limit=p_limit,
        )

    worst_gap: Optional[InequalityCheck] = None
    for n in range(1, N):
        lhs = abs(values[n] - values[n - 1])
        rhs = A * (q ** (2 * n) + q ** (2 * n + 2))
        if lhs > rhs + TOL:
            return failure("gap", n, lhs, rhs)
        if worst_gap is None or lhs - rhs > worst_gap.lhs - worst_gap.rhs:
            worst_gap = InequalityCheck(lhs=lhs, rhs=rhs, ok=True)

    base_lhs, base_rhs = values[0], A * q * q
    if base_lhs > base_rhs + TOL:
        return failure("base", 1, base_lhs, base_rhs)

    checks = CertificateChecks(
        gap=worst_gap,
        base=InequalityCheck(lhs=base_lhs, rhs=base_rhs, ok=True),
        endpoint=InequalityCheck(lhs=A, rhs=values[-1] + A * q ** (2 * N), ok=True),
        ratio=ratio,
        p_limit=p_limit,
    )
    return Certificate(q=q, N=N, A=A, pn_values=values, checks=checks)


def auto_certificate(q: float) -> Union[Certificate, CertificateFailure]:
    """Try N = 1, 2, 4, ... up to :data:`DEFAULT_N_MAX`; return the first
    certificate.

    Doubling reaches the asymptotic regime (A close to its limit) in a
    logarithmic number of attempts. On total failure the result carries the
    diagnostics of the largest N tried.
    """
    result: Union[Certificate, CertificateFailure, None] = None
    N = 1
    while N <= DEFAULT_N_MAX:
        result = verify_certificate(q, N)
        if isinstance(result, Certificate):
            return result
        N *= 2
    assert result is not None
    return result


class FairDivisionPlan(NamedTuple):
    """A constructed division: signs, block boundaries, residuals, certificate.

    ``block_ends[m]`` is the scoop count after m blocks (starting at 0) and
    ``residuals_at_blocks[m]`` the residual there, bounded by A * q^block_end.
    Every block is balanced, so sign prefix sums vanish at block ends and
    never exceed 2N in absolute value anywhere, and ``seq`` is a pattern
    built without re-validating its signs.
    """

    seq: PMPattern
    block_ends: tuple[int, ...]
    residuals_at_blocks: tuple[float, ...]
    certificate: Certificate


def construct_bounded(
    q: float,
    min_scoops: int,
    cert: Union[Certificate, CertificateFailure, None] = None,
) -> FairDivisionPlan:
    """Build a boundedly fair division of at least ``min_scoops`` scoops by
    the block rule (module docstring) from residual 0 at scoop 0, so runs
    open with "+-". ``cert`` defaults to :func:`auto_certificate`; a failed
    certification from either source raises :class:`CertificateError`.

    The blocks are chosen one by one only until the float state settles.
    Once q^k underflows to 0.0, every later power does too (the exact powers
    shrink by at least the factor q^2 per block and ``pow`` rounds them to
    the nearest double in practice), so every later x0 is 0.0 and the same
    first admissible block is chosen each time. Such a block leaves the
    residual at a signed zero: -0.0 when plate-swapped (from r > 0), +0.0
    otherwise. A zero is not > 0, so after the first unswapped block at
    q^k == 0.0 every later block is that block unswapped, leaving the same
    zero; the signs, the block ends (an arithmetic progression ending at or
    past ``min_scoops``) and the residuals are extended to the end without
    looping. That is the first underflowed block, or the second when the
    first starts from r > 0. q^k first underflows at scoop 1,413 for
    q = 0.59 and 2,150 just below 1/sqrt(2), far past the first exact break
    of the residual bound (block end 76 at q = 0.59, README's Numerical
    policy), so the repeated tail is a float artefact, not a proof.
    """
    if not isinstance(min_scoops, int) or min_scoops < 2:
        raise InputError(f"min_scoops must be an integer of at least 2, got {min_scoops!r}")
    cert = auto_certificate(q) if cert is None else cert
    if isinstance(cert, CertificateFailure):
        raise CertificateError(cert)
    if cert.q != q:
        raise InputError(f"certificate was issued for q={cert.q!r}, not q={q!r}")

    # One row per block: P_n(q), its radius, its degree 2n, and its signs
    # as is and plate-swapped.
    A = cert.A
    blocks = [
        (p_n, A * q ** (2 * n) + TOL, 2 * n, _alternating_block(n), _alternating_block(n, -1))
        for n, p_n in enumerate(cert.pn_values, 1)
    ]
    signs: list[int] = []
    block_ends = [0]
    residuals = [0.0]
    r = 0.0
    k = 0
    while k < min_scoops:
        q_pow_k = q ** k
        if q_pow_k > 0.0 and r != 0.0:
            x0 = abs(r) / q_pow_k
            # Clamp accumulated float drift back onto the covered segment;
            # the drift per block is below the certificate slack.
            if x0 > A:
                x0 = A
        else:
            x0 = 0.0
        for p_n, radius, degree, block, swapped in blocks:
            if abs(x0 - p_n) <= radius:
                break
        else:
            raise RuntimeError(
                f"certificate invariant broken: no admissible block for x0={x0!r} "
                f"(q={q!r}, N={cert.N})"
            )
        if r > 0.0:
            signs += swapped
            r = q_pow_k * (x0 - p_n)
        else:
            r = -q_pow_k * (x0 - p_n)
            if q_pow_k == 0.0:
                # Settled (see above): this block and every later one are the
                # same, ceil((min_scoops - k) / degree) of them in all.
                repeats = -((k - min_scoops) // degree)
                signs += block * repeats
                block_ends.extend(range(k + degree, k + repeats * degree + 1, degree))
                residuals += [r] * repeats
                break
            signs += block
        k += degree
        block_ends.append(k)
        residuals.append(r)
    return FairDivisionPlan(
        seq=PMPattern._trusted(signs),
        block_ends=tuple(block_ends),
        residuals_at_blocks=tuple(residuals),
        certificate=cert,
    )


def sqrt3_necessary(q: float) -> bool:
    """True iff q > 1/sqrt(3), i.e. 2q^2/(1-q^2) > 1 holds.

    For q at or below the threshold the covering balls of any single-chain
    family (degrees 2, 4, ..., 2n) are too short to cover [0, A], so no
    certificate of this shape can exist. It is decided exactly, as 3a^2 > d^2
    for q = a/d: the nearest float to 1/sqrt(3) lies below it and is False.
    """
    require_unit_open(q)
    a, d = q.as_integer_ratio()
    return 3 * a * a > d * d
