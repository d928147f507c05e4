"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success; a failing assertion yields
the usual pytest FAIL line for that criterion. Expected values and bounds
come from independent recomputation (exact rational arithmetic, dense-grid
sign scans, naive cumulative sums), never from the code paths under test.
"""

import math
import time
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from soupdiv import (
    Certificate,
    CertificateFailure,
    as_signs,
    auto_certificate,
    classify,
    construct_bounded,
    covering_ratio,
    enumerate_balanced,
    geometric_fair_division,
    min_period_search,
    pattern_roots,
    pn_pattern,
    prefix_diagnostics,
    q_infinity,
    qinf_poly,
    simulate,
)
from soupdiv.approx import DEFAULT_N_MAX
from soupdiv.cli import run
from soupdiv.poly import exact_sign

PHI_INV = 0.6180339887


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_q_infinity_reproduction(capsys):
    start = time.monotonic()
    code = run(["qinf", "--tol", "1e-7"])
    out = capsys.readouterr().out
    assert code == 0
    assert abs(float(out.strip()) - 0.5845751) <= 5e-7

    root = q_infinity(1e-12)
    assert abs(root - 0.5845751) <= 5e-7
    assert abs(qinf_poly(root)) <= 1e-11
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"threshold quartic root 0.5845751 +/- 5e-7, residual <= 1e-11 ({elapsed:.2f}s)")


def test_criterion_2_minimal_period_six(capsys):
    start = time.monotonic()
    assert sum(1 for _ in enumerate_balanced(2)) == 2
    assert sum(1 for _ in enumerate_balanced(4)) == 6
    low = min_period_search(4)
    assert all(low[n] == [] for n in low)

    results = min_period_search(6)
    six = {hit.pattern.to_text(): hit for hit in results[6]}
    assert "+---++" in six and "-+++--" in six
    root = six["+---++"].roots[0]
    assert abs(root - PHI_INV) <= 1e-9
    # no double is an exact root, so check the witness instead: the integer
    # cofactor (the pattern divided by x, then by 1 - x as prefix sums while
    # it vanishes at 1) changes sign exactly across root +- 1e-12
    cofactor = list(as_signs("+---++"))
    while sum(cofactor) == 0:
        cofactor = list(accumulate(cofactor))[:-1]
    sign = exact_sign(cofactor)
    assert sign(root - 1e-12) * sign(root + 1e-12) < 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _report(2, f"degrees 2,4 empty; degree 6 has +---++ at {root:.10f} ({elapsed:.2f}s)")


def test_criterion_3_greedy_bound(capsys):
    start = time.monotonic()
    for q in (0.7071068, 0.75, 0.9):
        seq = geometric_fair_division(q, 2000)
        sums, residuals = prefix_diagnostics(seq, q)
        assert all(s in (-1, 0, 1) for s in sums)
        for k in range(1, 1001):
            bound = q ** (2 * k + 1) / (1.0 + q) + 1e-10
            assert abs(residuals[2 * k - 1]) <= bound, (q, k)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(3, f"pair-tail residual bound and sign sums in {{-1,0,1}} at 3 q values ({elapsed:.2f}s)")


def _exact_gap_ratio(q: float, n: int) -> float:
    """|P_{n+1}(q) - P_n(q)| / (q^2n + q^(2n+2)) in exact integer arithmetic,
    with the pattern values summed term by term from the sign tuples."""
    num, den = Fraction(q).as_integer_ratio()
    num_pow = [1] * (2 * n + 3)
    den_pow = [1] * (2 * n + 3)
    for i in range(1, 2 * n + 3):
        num_pow[i] = num_pow[i - 1] * num
        den_pow[i] = den_pow[i - 1] * den

    def scaled_value(m: int) -> int:
        # P_m(q) * den^(2m), an exact integer
        signs = pn_pattern(m).signs
        return sum(s * num_pow[i] * den_pow[2 * m - i] for i, s in enumerate(signs, start=1))

    gap_num = scaled_value(n + 1) - scaled_value(n) * den_pow[2]
    denom_num = num_pow[2 * n] * den_pow[2] + num_pow[2 * n + 2]
    return float(Fraction(abs(gap_num), denom_num))


def test_criterion_4_certificate_regime(capsys):
    start = time.monotonic()
    q_inf = q_infinity(1e-12)
    assert DEFAULT_N_MAX == 64  # auto_certificate tries N = 1, 2, 4, ..., 64

    lo, hi = q_inf + 0.002, 0.99
    success_grid = [lo + (hi - lo) * (i + 0.5) / 50 for i in range(50)]
    for q in success_grid:
        assert isinstance(auto_certificate(q), Certificate), q

    lo, hi = 0.502, q_inf - 0.002
    failure_grid = [lo + (hi - lo) * (i + 0.5) / 20 for i in range(20)]
    for q in failure_grid:
        assert isinstance(auto_certificate(q), CertificateFailure), q

    for q in success_grid[::7] + failure_grid[::5]:
        expected = covering_ratio(q)
        for n in range(1, 21):
            assert abs(_exact_gap_ratio(q, n) - expected) <= 1e-10, (q, n)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(4, f"auto-certificates: 50/50 succeed above, 20/20 fail below; gap ratio identity to 1e-10 ({elapsed:.2f}s)")


def test_criterion_5_bounded_construction(capsys):
    for q in (0.59, 0.62, 0.7, 0.9):
        start = time.monotonic()
        plan = construct_bounded(q, 10**4)
        a = plan.certificate.A
        cap = 2 * plan.certificate.N
        sums, residuals = prefix_diagnostics(plan.seq, q)
        assert max(abs(s) for s in sums) <= cap
        for end in plan.block_ends[1:]:
            assert sums[end - 1] == 0
            assert abs(residuals[end - 1]) <= a * q**end + 1e-11, (q, end)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, q
    with capsys.disabled():
        _report(5, "block-end residuals within A*q^k + 1e-11 over >= 10^4 scoops at 4 q values")


def test_criterion_6_simulator_consistency(capsys):
    for q, signs in (
        (0.75, geometric_fair_division(0.75, 1000).signs),
        (0.62, construct_bounded(0.62, 1000).seq.signs[:1000]),
        (0.9, tuple(1 if i % 3 else -1 for i in range(1000))),
    ):
        trace = simulate(q, signs)
        _, residuals = prefix_diagnostics(signs, q)
        scale = (1.0 - q) / q
        for row, residual in zip(trace.rows, residuals):
            bowl = q**row.index
            assert abs(row.stuff2_plus + row.stuff2_minus + bowl - 1.0) <= 1e-12
            assert abs(row.imbalance2 - scale * residual) <= 1e-12

    result = classify(0.4)
    assert result.kind.value == "Infeasible"
    assert abs(result.witness_gap - 0.13333333333333333) <= 1e-10
    with capsys.disabled():
        _report(6, "conservation and residual identity to 1e-12 over 10^3 scoops; infeasibility gap 0.13333")


def _dense_sign_change_roots(signs, samples=1 << 16, refine_tol=1e-12):
    """Oracle: term-by-term values on a dense grid, bisect every sign change."""
    xs = np.arange(1, samples, dtype=np.float64) / samples
    powers = np.ones_like(xs)
    vals = np.zeros_like(xs)
    for s in signs:
        powers = powers * xs
        vals = vals + s * powers

    def f(x: float) -> float:
        total, p = 0.0, 1.0
        for s in signs:
            p *= x
            total += s * p
        return total

    roots = [float(xs[j]) for j in np.nonzero(vals == 0.0)[0]]
    sign_vals = np.sign(vals)
    for j in np.nonzero(sign_vals[:-1] * sign_vals[1:] < 0)[0]:
        lo, hi = float(xs[j]), float(xs[j + 1])
        f_lo = f(lo)
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            f_mid = f(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_lo < 0.0) != (f_mid < 0.0):
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def test_criterion_7_enumeration_and_root_oracle(capsys):
    for n in range(2, 17, 2):
        assert sum(1 for _ in enumerate_balanced(n)) == math.comb(n, n // 2)

    checked = 0
    for degree in (2, 4, 6, 8):
        for pattern in enumerate_balanced(degree):
            expected = _dense_sign_change_roots(pattern.signs)
            got = pattern_roots(pattern).roots
            assert len(got) == len(expected), pattern.to_text()
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-9, pattern.to_text()
            checked += 1
    assert checked == 2 + 6 + 20 + 70
    with capsys.disabled():
        _report(7, f"counts C(n, n/2) up to n=16; root finder matches 2^16-sample oracle on {checked} patterns")


def test_criterion_8_sqrt3_boundary(capsys):
    from soupdiv import sqrt3_necessary

    assert sqrt3_necessary(0.5774)
    assert not sqrt3_necessary(0.5773)
    with capsys.disabled():
        _report(8, "single-chain necessity flips exactly between 0.5773 and 0.5774")
