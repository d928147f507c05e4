"""Periodic fairness, exhaustive enumeration, and root isolation."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soupdiv.periodic as periodic
from soupdiv import (
    DomainError,
    InputError,
    PMPattern,
    classify_periodic,
    enumerate_balanced,
    eval_pm,
    min_period_search,
    pattern_roots,
    prefix_diagnostics,
    q_infinity,
)
from soupdiv.core import ROOT_MATCH_WINDOW, TOL, bisect_root
from soupdiv.periodic import MAX_SEARCH_DEGREE

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN = "+---++"


def test_classify_unbalanced_residual():
    verdict = classify_periodic("+-", 0.5)
    assert not verdict.fair
    assert verdict.sign_sum == 0
    assert verdict.residual_abs == pytest.approx(0.25, abs=1e-15)


def test_classify_golden_period_is_fair():
    verdict = classify_periodic(GOLDEN, PHI_INV)
    assert verdict.fair
    assert verdict.sign_sum == 0
    assert verdict.residual_abs <= 1e-12


def test_classify_plus_plus_minus_minus():
    q = 0.3
    verdict = classify_periodic("++--", q)
    assert not verdict.fair
    # residual factors as q(1+q)(1-q^2), strictly positive on (0,1)
    assert verdict.residual_abs == pytest.approx(q * (1 + q) * (1 - q * q), rel=1e-13)


def test_classify_unbalanced_sign_sum():
    verdict = classify_periodic("++-", 0.5)
    assert not verdict.fair
    assert verdict.sign_sum == 1


def test_classify_respects_zero_tol():
    # the verdict is a statement at the declared tolerance core.TOL, not an
    # exact-real one: the golden root is fair, a point 1e-9 away is not
    assert not classify_periodic("+-", 0.5).fair
    at_root = classify_periodic(GOLDEN, PHI_INV)
    assert at_root.fair and at_root.residual_abs <= TOL
    nearby = classify_periodic(GOLDEN, PHI_INV + 1e-9)
    assert nearby.sign_sum == 0
    assert nearby.residual_abs > TOL
    assert not nearby.fair


def test_enumerate_small_degrees():
    assert [p.to_text() for p in enumerate_balanced(2)] == ["+-", "-+"]
    assert len(list(enumerate_balanced(4))) == 6
    assert list(enumerate_balanced(3)) == []


@pytest.mark.parametrize("n", list(range(2, 21, 2)))
def test_enumerate_counts(n):
    count = sum(1 for _ in enumerate_balanced(n))
    assert count == math.comb(n, n // 2)


def test_enumerate_lexicographic_and_balanced():
    texts = [p.to_text() for p in enumerate_balanced(6)]
    assert texts == sorted(texts)  # '+' < '-' in ASCII
    assert all(sum(p.signs) == 0 for p in enumerate_balanced(6))


def test_enumerated_patterns_equal_validated_ones():
    # enumeration skips validation; every pattern it yields must still be
    # one the validating constructor accepts unchanged
    for n in (2, 4, 6, 8, 10):
        for pattern in enumerate_balanced(n):
            assert type(pattern) is PMPattern
            assert PMPattern(tuple(pattern)) == pattern


def test_enumerate_validation():
    with pytest.raises(InputError):
        list(enumerate_balanced(0))


def test_no_roots_for_simple_patterns():
    # q(1-q) and q(1-q)(1+q^2) have no zeros inside (0,1)
    assert pattern_roots(PMPattern.from_text("+-")).roots == ()
    assert pattern_roots(PMPattern.from_text("+-+-")).roots == ()


def test_golden_pattern_root():
    report = pattern_roots(PMPattern.from_text(GOLDEN))
    assert len(report.roots) == 1
    assert abs(report.roots[0] - PHI_INV) <= 1e-9
    assert abs(eval_pm(GOLDEN, report.roots[0])) <= 2e-12


def _grid_roots(signs, grid, root_tol=TOL):
    """Oracle: the grid finder that pattern_roots used before exact isolation.

    Samples grid+1 equispaced points in [d, 1-d] with d = 1/(2*grid) (the
    same float values as a scalar Horner loop), bisects every sign change to
    width <= root_tol, merges roots within 2*root_tol and drops roots within
    2*root_tol of either endpoint.
    """
    delta = 1.0 / (2.0 * grid)
    span = 1.0 - 2.0 * delta
    xs = delta + np.arange(grid + 1) * span / grid
    values = np.zeros_like(xs)
    for s in reversed(signs):
        values = values * xs + s
    values = values * xs
    found = [float(x) for x in xs[values == 0.0]]
    for j in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        lo, hi = float(xs[j]), float(xs[j + 1])
        found.append(bisect_root(lambda x: eval_pm(signs, x), lo, hi, root_tol))
    roots = []
    for r in sorted(found):
        if r < 2.0 * root_tol or r > 1.0 - 2.0 * root_tol:
            continue
        if roots and r - roots[-1] <= 2.0 * root_tol:
            continue
        roots.append(r)
    return roots


@pytest.fixture(scope="module")
def grid_oracle():
    """Grid roots at 4096 intervals of every balanced pattern of degree <= 10."""
    return {
        pattern: _grid_roots(pattern.signs, 4096)
        for degree in range(2, 11, 2)
        for pattern in enumerate_balanced(degree)
    }


def test_exact_roots_match_grid_oracle(grid_oracle):
    assert len(grid_oracle) == 2 + 6 + 20 + 70 + 252
    for pattern, expected in grid_oracle.items():
        got = pattern_roots(pattern).roots
        assert len(got) == len(expected), pattern.to_text()
        for a, b in zip(got, expected):
            assert abs(a - b) <= 2e-12, pattern.to_text()


def test_roots_refine_when_grid_doubles(grid_oracle):
    for degree in (6, 8):
        for pattern in enumerate_balanced(degree):
            exact = pattern_roots(pattern).roots
            for grid_roots in (_grid_roots(pattern.signs, 2048), grid_oracle[pattern]):
                for r in exact:
                    assert any(abs(r - s) <= 1e-9 for s in grid_roots)
                for s in grid_roots:
                    assert any(abs(r - s) <= 1e-9 for r in exact)


def _exact_value(signs, x):
    return sum(s * x**i for i, s in enumerate(signs, start=1))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda half: st.permutations([1] * half + [-1] * half)))
def test_roots_are_exact_sign_brackets(signs):
    pattern = PMPattern(tuple(signs))
    roots = pattern_roots(pattern).roots
    assert pattern_roots(pattern.negated()).roots == roots
    tol = Fraction(TOL)
    for r in map(Fraction, roots):
        lo, hi = _exact_value(signs, r - tol), _exact_value(signs, r + tol)
        assert _exact_value(signs, r) == 0 or lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([1, -5, 3, 9], [1 / 3]),  # (3x-1)^2 (x+1): a double root
        ([-2, 15, -36, 27], [1 / 3, 2 / 3]),  # (3x-1)^2 (3x-2): double root off the dyadics
    ],
)
def test_unit_interval_roots_repeated_and_dyadic(coeffs, expected):
    roots = periodic._unit_interval_roots(coeffs)
    assert len(roots) == len(expected)
    for r, e in zip(roots, expected):
        assert abs(r - e) <= TOL


def test_pattern_cofactors_have_unit_end_coefficients():
    # The precondition of _unit_interval_roots: with +-1 end coefficients the
    # squarefree part has no rational root in (0, 1), hence no dyadic one.
    for n in range(2, 13, 2):
        for pattern in enumerate_balanced(n):
            cofactor = list(pattern.signs)  # the pattern divided by x
            while sum(cofactor) == 0:  # divide by (1 - x)
                cofactor = list(itertools.accumulate(cofactor))[:-1]
            part = cofactor
            if len(cofactor) > 1:
                derivative = [i * c for i, c in enumerate(cofactor)][1:]
                part = periodic._exact_quotient(
                    cofactor, periodic._poly_gcd(cofactor, derivative)
                )
            assert abs(part[0]) == abs(part[-1]) == 1, pattern.to_text()


@functools.lru_cache(maxsize=None)
def _open_window_hits():
    """(signs, root) for every root of degree <= 12 in (1/2, q_inf]."""
    q_inf = q_infinity(1e-12)
    return tuple(
        (hit.pattern.signs, root)
        for hits in min_period_search(12).values()
        for hit in hits
        for root in hit.roots
        if 0.5 < root <= q_inf
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), planted=st.booleans())
def test_pruned_prefixes_hold_no_bracket(data, planted):
    # A planted root with a prefix of its own pattern puts a bracket in reach.
    if planted:
        signs, q = data.draw(st.sampled_from(_open_window_hits()), label="hit")
    else:
        half = data.draw(st.integers(1, 6), label="half")
        signs = tuple(data.draw(st.permutations([1] * half + [-1] * half), label="signs"))
        q = data.draw(st.floats(0.5, q_infinity(1e-12), exclude_min=True), label="q")
    n = len(signs)
    k = data.draw(st.integers(0, n), label="k")
    lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
    pw_lo, s_lo = periodic._power_table(lo, n)
    pw_hi, s_hi = periodic._power_table(hi, n)
    p_lo = p_hi = 0.0
    for i, s in enumerate(signs[:k], start=1):
        p_lo, p_hi = p_lo + s * pw_lo[i], p_hi + s * pw_hi[i]
    a = signs[k:].count(1)
    b = n - k - a
    if not periodic._excluded(k, a, b, p_lo, p_hi, s_lo, s_hi):
        return
    for plus in itertools.combinations(range(k, n), a):
        completion = [-1] * n
        completion[:k] = signs[:k]
        for i in plus:
            completion[i] = 1
        f_lo, f_hi = eval_pm(completion, lo), eval_pm(completion, hi)
        assert f_lo != 0.0 and (f_lo < 0.0) == (f_hi < 0.0), completion


def test_bracket_search_validation():
    with pytest.raises(InputError, match="exceeds the cap"):
        periodic.first_bracketed_pattern(0.55, 0.56, 66)
    with pytest.raises(DomainError):
        periodic.first_bracketed_pattern(0.7, 0.71, 12)
    assert periodic.first_bracketed_pattern(0.56, 0.56 + 1e-9, 2) is None


def test_search_below_six_is_empty():
    results = min_period_search(5)
    assert sorted(results) == [1, 2, 3, 4, 5]
    assert all(results[n] == [] for n in results)


def test_search_finds_golden_at_six():
    results = min_period_search(6)
    six = {hit.pattern.to_text(): hit for hit in results[6]}
    assert GOLDEN in six
    golden_hit = six[GOLDEN]
    assert abs(golden_hit.roots[0] - PHI_INV) <= 1e-9
    assert golden_hit.negation_partner == "-+++--"
    assert golden_hit.canonical


def test_search_negation_closure():
    results = min_period_search(6)
    by_text = {hit.pattern.to_text(): hit for hit in results[6]}
    for text, hit in by_text.items():
        partner = by_text[hit.negation_partner]
        assert partner.roots == hit.roots
        assert hit.canonical != partner.canonical


def test_search_validation():
    with pytest.raises(InputError):
        min_period_search(1)


def test_search_budget_refuses_before_enumerating(monkeypatch):
    def refuse(n):
        raise AssertionError("enumerated patterns before checking the budget")

    monkeypatch.setattr(periodic, "enumerate_balanced", refuse)
    for degree in (20, 40, 10**9):
        with pytest.raises(InputError, match=f"exceeds the cap of {MAX_SEARCH_DEGREE};"):
            min_period_search(degree)
    # 19 adds no balanced pattern to 18, so both are admitted and enumerated
    for degree in (MAX_SEARCH_DEGREE, MAX_SEARCH_DEGREE + 1):
        with pytest.raises(AssertionError, match="enumerated patterns"):
            min_period_search(degree)


def test_fair_period_agrees_with_simulation():
    periods = 50
    n = len(GOLDEN)
    signs = tuple(PMPattern.from_text(GOLDEN).signs) * periods
    _, residuals = prefix_diagnostics(signs, PHI_INV)
    for m in range(1, periods + 1):
        assert abs(residuals[m * n - 1]) <= m * n * 1e-14
