"""Certificates, the alternating pattern family, and the block construction."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from soupdiv import (
    INV_SQRT2,
    Certificate,
    CertificateError,
    CertificateFailure,
    DomainError,
    InputError,
    PMPattern,
    auto_certificate,
    construct_bounded,
    covering_ratio,
    eval_pm,
    pn_pattern,
    pn_value,
    prefix_diagnostics,
    q_infinity,
    qinf_poly,
    sqrt3_necessary,
    verify_certificate,
)
from soupdiv.approx import DEFAULT_N_MAX, Q_INF
from soupdiv.core import TOL, bisect_root

# frozen from a 200-step exact-rational bisection of x^4 + x^3 + 2x^2 - 1
Q_INF_REFERENCE = 0.5845751333644155


def exact_pattern_value(signs, q: Fraction) -> Fraction:
    power = Fraction(1)
    total = Fraction(0)
    for s in signs:
        power *= q
        total += s * power
    return total


def test_pn_pattern_small_cases():
    assert pn_pattern(1).to_text() == "+-"
    assert pn_pattern(2).to_text() == "++--"
    assert pn_pattern(3).to_text() == "++-+--"


def test_pn_pattern_is_memoized_and_bounded():
    # The name predates the removal of pn_pattern's cache: equal n still give
    # equal patterns, and an n that is not a positive int is refused.
    assert pn_pattern(5) == pn_pattern(5)
    assert type(pn_pattern(5)) is PMPattern
    for bad in (0, -1, 1.5, 2.0, "2"):
        with pytest.raises(InputError):
            pn_pattern(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 30])
def test_pn_pattern_structure(n):
    pattern = pn_pattern(n)
    assert pattern.degree == 2 * n
    assert sum(pattern.signs) == 0
    assert pattern.signs[0] == 1
    assert pattern.signs[-1] == -1
    for i in range(2, 2 * n):
        assert pattern.signs[i - 1] == (1 if i % 2 == 0 else -1)


def test_pn_value_examples():
    assert pn_value(0.7, 1) == pytest.approx(0.21, abs=1e-15)
    assert pn_value(0.7, math.inf) == pytest.approx(0.7 + 0.49 / 1.7, abs=1e-15)


def test_pn_value_matches_pattern_eval():
    rng = random.Random(31)
    for _ in range(40):
        q = rng.uniform(0.05, 0.95)
        n = rng.randint(1, 20)
        assert abs(pn_value(q, n) - eval_pm(pn_pattern(n), q)) <= 1e-13


def test_pn_value_validation():
    with pytest.raises(DomainError):
        pn_value(1.0, 3)
    with pytest.raises(InputError):
        pn_value(0.7, 0)
    with pytest.raises(InputError):
        pn_value(0.7, 2.5)


def test_q_infinity_digits():
    assert abs(q_infinity(1e-7) - 0.5845751) <= 5e-7
    assert abs(q_infinity(1e-12) - Q_INF_REFERENCE) <= 5e-12
    assert abs(qinf_poly(q_infinity(1e-12))) <= 1e-11


def test_q_infinity_bracket_signs():
    assert qinf_poly(0.58) < 0.0 < qinf_poly(0.59)


def test_qinf_poly_is_the_written_out_quartic():
    # reference: the quartic by nested multiplication, bit for bit
    rng = random.Random(39)
    xs = [0.0, -0.0, 0.5, 0.6, Q_INF, q_infinity()]
    xs += [rng.uniform(-2.0, 2.0) for _ in range(1000)] + [rng.random() for _ in range(1000)]
    for x in xs:
        assert qinf_poly(x).hex() == (((x + 1.0) * x + 2.0) * x * x - 1.0).hex(), x


def _exact_quartic(x: float) -> Fraction:
    x = Fraction(x)
    return x**4 + x**3 + 2 * x**2 - 1


def test_q_inf_is_the_largest_float_below_the_root():
    assert Q_INF == Q_INF_REFERENCE == 0.5845751333644155
    assert _exact_quartic(Q_INF) < 0 < _exact_quartic(math.nextafter(Q_INF, 1.0))


def _float_q_infinity(tol: float) -> float:
    """q_infinity as it was before the exact sign: bisection on the float quartic."""
    return bisect_root(qinf_poly, 0.5, 0.6, tol)


def test_q_infinity_matches_the_float_bisection():
    # the exact sign changes no printed root: every bracket the float
    # bisection visits keeps the float quartic's sign, down to 1e-300
    rng = random.Random(26)
    tols = [10.0**-k for k in range(1, 17)]
    tols += [10.0 ** rng.uniform(-300.0, -1.0) for _ in range(200)]
    for tol in tols:
        assert q_infinity(tol) == _float_q_infinity(tol), tol


def test_q_infinity_validation():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(InputError):
            q_infinity(tol)


def test_certificate_at_q07():
    cert = verify_certificate(0.7, 8)
    assert isinstance(cert, Certificate)
    # independent recomputation: A = P_8(0.7) / (1 - 0.7^16) with P_8 summed
    # term by term from the pattern
    p8 = float(exact_pattern_value(pn_pattern(8).signs, Fraction(7, 10)))
    assert cert.A == pytest.approx(p8 / (1 - 0.7**16), rel=1e-12)
    assert cert.A == pytest.approx(0.9862346696219748, rel=1e-12)
    assert cert.checks.ratio == pytest.approx(0.5436241610738255, rel=1e-12)
    assert cert.checks.p_limit == pytest.approx(0.988235294117647, rel=1e-12)
    assert cert.checks.ratio < cert.checks.p_limit
    assert len(cert.pn_values) == 8
    assert cert.pn_values == tuple(sorted(cert.pn_values))


def test_certificate_invariants():
    cert = verify_certificate(0.7, 8)
    q = cert.q
    assert cert.A == pytest.approx(cert.pn_values[-1] / (1 - q**16), rel=1e-12)
    assert cert.A * q * q >= cert.pn_values[0] - 1e-12
    for n in range(1, cert.N):
        gap = abs(cert.pn_values[n] - cert.pn_values[n - 1])
        assert gap <= cert.A * (q ** (2 * n) + q ** (2 * n + 2)) + 1e-12
    assert cert.pn_values[-1] + cert.A * q ** (2 * cert.N) >= cert.A - 1e-12


def test_failure_base_family():
    failure = verify_certificate(0.55, 1)
    assert isinstance(failure, CertificateFailure)
    assert failure.family == "base"
    assert failure.lhs == pytest.approx(0.2475, abs=1e-12)        # P_1(0.55)
    assert failure.rhs == pytest.approx(0.10733870967741937, abs=1e-12)  # A*q^2


def test_failure_gap_family():
    failure = verify_certificate(0.55, 2)
    assert isinstance(failure, CertificateFailure)
    assert failure.family == "gap"
    assert failure.index == 1
    assert failure.A == pytest.approx(0.6545105566218811, rel=1e-12)
    assert failure.ratio == pytest.approx(0.8809980806142035, rel=1e-12)
    assert failure.ratio > failure.A


def test_endpoint_sides_are_one_rounding_apart():
    # A is defined as P_N(q) / (1 - q^2N), so the recorded endpoint check
    # A <= P_N(q) + A*q^2N cannot fail: its sides differ by rounding alone
    rng = random.Random(28)
    certified = 0
    for _ in range(200):
        q = rng.uniform(Q_INF, 1.0)
        for N in range(1, DEFAULT_N_MAX + 1):
            cert = verify_certificate(q, N)
            if isinstance(cert, Certificate):
                end = cert.checks.endpoint
                assert end.ok and abs(end.lhs - end.rhs) <= 4 * math.ulp(1.0), (q, N)
                certified += 1
    assert certified > 10_000


def test_verify_certificate_domain():
    with pytest.raises(DomainError):
        verify_certificate(0.5, 4)
    with pytest.raises(DomainError):
        verify_certificate(1.0, 4)
    # N is an int in 1..DEFAULT_N_MAX, refused before any work
    for bad in (0, -1, DEFAULT_N_MAX + 1, 10**6, 2.0, 1.5, "8", None):
        with pytest.raises(InputError):
            verify_certificate(0.7, bad)
    assert isinstance(verify_certificate(0.7, DEFAULT_N_MAX), Certificate)


def test_auto_certificate_outcomes():
    ok = auto_certificate(0.6)
    assert isinstance(ok, Certificate)
    assert ok.N <= 64

    small_n = auto_certificate(0.9)
    assert isinstance(small_n, Certificate)
    assert small_n.N == 1

    bad = auto_certificate(0.55)
    assert isinstance(bad, CertificateFailure)
    assert bad.N == 64  # the last diagnostic is reported


def test_construct_opens_with_plus_minus():
    plan = construct_bounded(0.7, 4)
    assert plan.seq.to_text().startswith("+-")
    assert plan.block_ends[0] == 0
    assert plan.block_ends[1] == 2
    assert abs(plan.residuals_at_blocks[1]) == pytest.approx(0.21, abs=1e-12)
    assert abs(plan.residuals_at_blocks[1]) <= plan.certificate.A * 0.49 + 1e-12


def test_construct_block_structure():
    plan = construct_bounded(0.62, 500)
    n_cap = 2 * plan.certificate.N
    sums, _ = prefix_diagnostics(plan.seq, 0.62)
    for prev, end in zip(plan.block_ends, plan.block_ends[1:]):
        length = end - prev
        assert length % 2 == 0 and 0 < length <= n_cap
        assert sums[end - 1] == 0
        block = plan.seq.signs[prev:end]
        assert sum(block) == 0
    assert max(abs(s) for s in sums) <= n_cap


def test_construct_residual_bounds():
    for q in (0.62, 0.7):
        plan = construct_bounded(q, 1000)
        a = plan.certificate.A
        _, residuals = prefix_diagnostics(plan.seq, q)
        for end, recorded in zip(plan.block_ends[1:], plan.residuals_at_blocks[1:]):
            bound = a * q**end + 1e-11
            assert abs(recorded) <= bound
            assert abs(residuals[end - 1]) <= bound


def test_construct_residual_contraction():
    plan = construct_bounded(0.62, 400)
    a = plan.certificate.A
    q = 0.62
    for prev_end, end, r in zip(
        plan.block_ends, plan.block_ends[1:], plan.residuals_at_blocks[1:]
    ):
        assert abs(r) <= q ** (end - prev_end) * a * q**prev_end + 1e-11


def test_construct_returns_pattern_of_recomputed_blocks():
    # test-local replay of the block rule: shortest admissible alternating
    # block, negated when the residual is positive
    q, scoops = 0.62, 10_000
    plan = construct_bounded(q, scoops)
    cert = plan.certificate
    signs, r, k = [], 0.0, 0
    while k < scoops:
        q_pow_k = q**k
        x0 = min(abs(r) / q_pow_k if q_pow_k > 0.0 and r != 0.0 else 0.0, cert.A)
        n = next(
            n for n in range(1, cert.N + 1)
            if abs(x0 - cert.pn_values[n - 1]) <= cert.A * q ** (2 * n) + TOL
        )
        block = [1] + [1 if i % 2 == 0 else -1 for i in range(2, 2 * n)] + [-1]
        residual = x0 - cert.pn_values[n - 1]
        if r > 0.0:
            signs += [-s for s in block]
            r = q_pow_k * residual
        else:
            signs += block
            r = -q_pow_k * residual
        k += 2 * n
    assert type(plan.seq) is PMPattern
    assert plan.seq.signs == tuple(signs)
    assert plan.block_ends[-1] == k


# SHA-256 of construct_bounded(q, 10^5): its sign string, block ends and
# residuals (float.hex). These bits are the printed divisions; a change to
# them is a behaviour change, not a refactor.
CONSTRUCT_DIGESTS = {
    0.59: "fc619be9a59b3b24f7c0f228840ec6553f210f0e4bdc52476bb8362f53b120e3",
    0.62: "d9e92f29152a063a584e5849fe1f53b4476b96bc97f2fd4e4d46ae37ac0c2942",
    0.70: "09eb8ee31c4e244a5398d419385035f8a11eec7789217d527466d77c81804e11",
    0.75: "359ee4a47300aecbf4daf94b206d5abe814dbc7563b1a0ecab7941dabd2db53c",
    0.9: "fddcd99b7fbec7c66b5e918d26b2de22012a509c67efe8360600e6a28b8b3c3c",
    0.99: "15d886749cc2478edecdcec97f74336ce9a2cc2e20f23be26e3cf278f0dfe100",
}


@pytest.mark.parametrize("q", sorted(CONSTRUCT_DIGESTS))
def test_construct_is_bit_identical_at_1e5_scoops(q):
    plan = construct_bounded(q, 100_000)
    text = "|".join((
        plan.seq.to_text(),
        ",".join(map(str, plan.block_ends)),
        ",".join(map(float.hex, plan.residuals_at_blocks)),
    ))
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_DIGESTS[q]


def test_construct_validation():
    with pytest.raises(InputError):
        construct_bounded(0.7, 1)
    with pytest.raises(InputError, match="min_scoops must be an integer of at least 2"):
        construct_bounded(0.62, 10.0)
    cert = verify_certificate(0.7, 8)
    assert isinstance(cert, Certificate)
    with pytest.raises(InputError):
        construct_bounded(0.71, 10, cert=cert)
    with pytest.raises(CertificateError) as excinfo:
        construct_bounded(0.55, 10)
    assert excinfo.value.failure.family == "gap"
    # a failure passed in is refused like one found by auto_certificate
    failure = verify_certificate(0.7, 1)
    assert isinstance(failure, CertificateFailure)
    with pytest.raises(CertificateError) as excinfo:
        construct_bounded(0.7, 10, cert=failure)
    assert excinfo.value.failure is failure
    with pytest.raises(RuntimeError, match="no admissible block"):
        construct_bounded(0.7, 10, cert=cert._replace(pn_values=(5.0,) * cert.N))


def _reference_plan(q, scoops, cert):
    """Test-local copy of the earlier two-function construction: a step
    function returning (n, pattern, residual), and a loop that negates the
    pattern when the residual is positive."""

    def step(x0):
        for n in range(1, cert.N + 1):
            residual = x0 - cert.pn_values[n - 1]
            if abs(residual) <= cert.A * q ** (2 * n) + TOL:
                signs = [1] + [1 if i % 2 == 0 else -1 for i in range(2, 2 * n)] + [-1]
                return n, signs, residual
        raise AssertionError("no admissible n")

    signs, ends, residuals, r, k = [], [0], [0.0], 0.0, 0
    while k < scoops:
        q_pow_k = q**k
        x0 = abs(r) / q_pow_k if (q_pow_k > 0.0 and r != 0.0) else 0.0
        n, pattern, residual = step(min(x0, cert.A))
        if r > 0.0:
            signs.extend(-s for s in pattern)
            r = q_pow_k * residual
        else:
            signs.extend(pattern)
            r = -q_pow_k * residual
        k += 2 * n
        ends.append(k)
        residuals.append(r)
    return tuple(signs), tuple(ends), tuple(map(float.hex, residuals))


def _plan_bits(plan):
    """Signs, block ends and residuals of a plan, the residuals as
    ``float.hex`` so that the sign of a zero is compared too."""
    return plan.seq.signs, plan.block_ends, tuple(map(float.hex, plan.residuals_at_blocks))


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(Q_INF, 0.99, exclude_min=True),
    N=st.sampled_from([None, 2, 4, 8, 64]),
    scoops=st.integers(2, 3000),
)
def test_construct_matches_reference_construction(q, N, scoops):
    cert = auto_certificate(q) if N is None else verify_certificate(q, N)
    assume(isinstance(cert, Certificate))
    plan = construct_bounded(q, scoops, cert=cert)
    assert type(plan.seq) is PMPattern
    assert _plan_bits(plan) == _reference_plan(q, scoops, cert)


# q, certificate size (None: auto_certificate), and the residual, as
# float.hex, at the start of the first block where q^k has underflowed to
# 0.0. At 0.8141 with N = 8 that residual is positive, so the first
# underflowed block is plate-swapped and leaves -0.0, and only the second
# one repeats; from a zero the first one already repeats.
UNDERFLOW_CASES = [
    (0.59, None, "0x0.0p+0"),
    (math.nextafter(Q_INF, 1.0), None, "-0x0.0p+0"),
    (math.nextafter(INV_SQRT2, 0.0), None, "0x0.0p+0"),
    (0.8141, 8, "0x0.0000000000001p-1022"),
]


@pytest.mark.parametrize("q, N, first_residual", UNDERFLOW_CASES)
def test_construct_settles_after_underflow(q, N, first_residual):
    cert = auto_certificate(q) if N is None else verify_certificate(q, N)
    assert isinstance(cert, Certificate)
    _, ends, residuals = _reference_plan(q, 6000, cert)
    first = next(m for m, k in enumerate(ends) if q**k == 0.0)
    assert residuals[first] == first_residual
    # the settle scoop: the start of the first unswapped block at q^k == 0.0
    settle = ends[first + 1] if float.fromhex(first_residual) > 0.0 else ends[first]
    for scoops in (settle - 1, settle, settle + 1, settle + 41):
        plan = construct_bounded(q, scoops, cert=cert)
        assert _plan_bits(plan) == _reference_plan(q, scoops, cert), scoops


def test_gap_ratio_identity_exact_oracle():
    # exact rational evaluation of consecutive pattern values; the quotient
    # must coincide with the closed-form constant to float accuracy
    rng = random.Random(404)
    for _ in range(12):
        q_float = rng.uniform(0.05, 0.95)
        q = Fraction(q_float)
        values = [exact_pattern_value(pn_pattern(n).signs, q) for n in range(1, 12)]
        for n in range(1, 11):
            gap = values[n] - values[n - 1]
            denom = q ** (2 * n) + q ** (2 * n + 2)
            assert abs(float(gap / denom) - covering_ratio(q_float)) <= 1e-10


def test_pn_values_approach_limit():
    for q in (0.55, 0.7, 0.85, 0.95):
        a = pn_value(q, 64) / (1.0 - q**128)
        assert abs(a - pn_value(q, math.inf)) <= q**128 * 10


def test_positivity_at_threshold():
    q = q_infinity(1e-12)
    assert -1.0 + 2.0 * q * q + 2.0 * q**3 > 0.0


def test_threshold_consistency_small_grid():
    q_inf = q_infinity(1e-12)
    for i in range(8):
        q = (q_inf + 0.004) + i * (0.98 - q_inf - 0.004) / 8
        assert isinstance(auto_certificate(q), Certificate)
    for i in range(8):
        q = 0.505 + i * (q_inf - 0.004 - 0.505) / 8
        assert isinstance(auto_certificate(q), CertificateFailure)


def test_sqrt3_boundary():
    assert not sqrt3_necessary(0.577)
    assert sqrt3_necessary(0.58)
    # 1/sqrt(3) = 0.57735026918962576451...: decided exactly, not in floats
    assert 1.0 / math.sqrt(3.0) == 0.5773502691896258
    assert sqrt3_necessary(0.5773502691896258)
    assert not sqrt3_necessary(0.5773502691896257)
    with pytest.raises(DomainError):
        sqrt3_necessary(0.0)
