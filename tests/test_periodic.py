"""Exhaustive balanced-pattern enumeration and root isolation."""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soupdiv.periodic as periodic
import soupdiv.poly as poly
from soupdiv import (
    DomainError,
    InputError,
    PMPattern,
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
    for n in (0, -2, 4.0, "4", None):
        with pytest.raises(InputError):
            list(enumerate_balanced(n))


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
    roots = poly.unit_interval_roots(coeffs)
    assert len(roots) == len(expected)
    for r, e in zip(roots, expected):
        assert abs(r - e) <= TOL


def _cofactor(signs):
    """The pattern divided by x, then by (1 - x) while it vanishes at 1."""
    cofactor = list(signs)
    while sum(cofactor) == 0:
        cofactor = list(itertools.accumulate(cofactor))[:-1]
    return cofactor


def _squarefree_part(q):
    derivative = [i * c for i, c in enumerate(q)][1:]
    return poly.exact_quotient(q, poly.poly_gcd(q, derivative))


def test_pattern_cofactors_have_unit_end_coefficients():
    # The precondition of poly.unit_interval_roots: with +-1 end coefficients the
    # squarefree part has no rational root in (0, 1), hence no dyadic one.
    for n in range(2, 13, 2):
        for pattern in enumerate_balanced(n):
            cofactor = _cofactor(pattern.signs)
            part = _squarefree_part(cofactor) if len(cofactor) > 1 else cofactor
            assert abs(part[0]) == abs(part[-1]) == 1, pattern.to_text()


def _reference_roots(signs):
    """Reference: the root finder without the Descartes screen or the float
    filter. Every cofactor goes through its squarefree part and
    Vincent-Collins-Akritas isolation, and every bisection step takes the
    exact integer sign."""
    q = _cofactor(signs)
    if len(q) < 2:
        return ()
    q = _squarefree_part(q)
    exact = functools.partial(poly.scaled_value, q)
    return tuple(
        sorted(
            bisect_root(exact, c / (1 << k), (c + 1) / (1 << k), TOL)
            for c, k in poly.isolate(q)
        )
    )


def test_roots_equal_reference_on_every_pattern_to_degree_12():
    count = 0
    for n in range(2, 13, 2):
        for pattern in enumerate_balanced(n):
            assert pattern_roots(pattern).roots == _reference_roots(pattern), pattern.to_text()
            count += 1
    assert count == 1274


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(7, 9).flatmap(lambda half: st.permutations([1] * half + [-1] * half)),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=18),
    )
)
def test_roots_equal_reference_on_long_and_unbalanced_patterns(signs):
    # pattern_roots takes any +-1 sequence, balanced or not
    assert pattern_roots(tuple(signs)).roots == _reference_roots(signs)


def _sign(v):
    return (v > 0) - (v < 0)


def test_filtered_sign_is_exact_next_to_every_root():
    # 128 consecutive floats from 64 ulps below each root of every cofactor
    # of degree <= 12: there the Horner value is smallest against its
    # rounding error, so a filter bound too small shows here first.
    checked = 0
    for n in range(2, 13, 2):
        for pattern in enumerate_balanced(n):
            q = _cofactor(pattern.signs)
            sign = poly.exact_sign(q)
            for root in pattern_roots(pattern).roots:
                x = root
                for _ in range(64):
                    x = math.nextafter(x, 0.0)
                for _ in range(128):
                    assert _sign(sign(x)) == _sign(poly.scaled_value(q, x)), (pattern, x)
                    x = math.nextafter(x, 1.0)
                    checked += 1
    assert checked == 360 * 128
    # 97 ulps below the root of "+--+-+-+-+" the Horner value is nonzero and
    # has the wrong sign; only the exact value gets it right
    q, x = _cofactor(PMPattern.from_text("+--+-+-+-+").signs), 0.7202708266172414
    horner = functools.reduce(lambda acc, c: acc * x + c, map(float, reversed(q)), 0.0)
    assert horner > 0 > poly.scaled_value(q, x)
    assert poly.exact_sign(q)(x) < 0
    # coefficients past 2^53 may be no float at all: always the integer value
    wide = [-(1 << 1100) - 1, 1 << 1101]
    assert poly.exact_sign(wide)(0.5) == poly.scaled_value(wide, 0.5) == -2


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


@pytest.mark.parametrize(
    "q, degree, nodes",
    [(0.56, 12, 82), (0.55, 10, 47), (0.5436890126916784, 10, 22), (0.57, 12, 90), (0.56, 64, 1896)],
)
def test_bracket_search_visits_the_pinned_node_count(monkeypatch, q, degree, nodes):
    # the counts of the recursive search this one replaced, one per _excluded
    # call; the smallest budget that lets the search finish is that count
    lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
    expected = periodic.first_bracketed_pattern(lo, hi, degree)
    monkeypatch.setattr(periodic, "MAX_MEMBERSHIP_NODES", nodes)
    assert periodic.first_bracketed_pattern(lo, hi, degree) == expected
    monkeypatch.setattr(periodic, "MAX_MEMBERSHIP_NODES", nodes - 1)
    with pytest.raises(InputError, match=f"visited more than {nodes - 1:,} prefix nodes"):
        periodic.first_bracketed_pattern(lo, hi, degree)


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
    assert golden_hit.pattern.negated().to_text() == "-+++--"


def test_search_negation_closure():
    results = min_period_search(6)
    by_text = {hit.pattern.to_text(): hit for hit in results[6]}
    for text, hit in by_text.items():
        partner = by_text[hit.pattern.negated().to_text()]
        assert partner.roots == hit.roots


def test_search_validation():
    for max_N in (1, 0, 8.0, "8", None):
        with pytest.raises(InputError):
            min_period_search(max_N)


def test_search_computes_roots_once_per_negation_pair(monkeypatch):
    calls = []

    def counted(pattern, *, changes=None):
        calls.append(pattern)
        return pattern_roots(pattern, changes=changes)

    monkeypatch.setattr(periodic, "pattern_roots", counted)
    results = min_period_search(10)
    assert all(p[0] == 1 for p in calls)
    assert len(set(calls)) == len(calls)
    assert not {p.negated() for p in calls} & set(calls)
    # every pattern the screen kept from pattern_roots has no root
    skipped = {
        p for n in range(2, 11, 2) for p in enumerate_balanced(n) if p[0] == 1
    } - set(calls)
    assert len(skipped) + len(calls) == sum(math.comb(n, n // 2) // 2 for n in range(2, 11, 2))
    assert all(_reference_roots(p) == () for p in skipped)
    hits = [hit for degree_hits in results.values() for hit in degree_hits]
    assert len(hits) == 90
    for hit in hits:
        assert hit.roots == _reference_roots(hit.pattern), hit.pattern.to_text()


def test_search_budget_refuses_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated patterns before checking the budget")

    monkeypatch.setattr(periodic, "combinations", refuse)
    for degree in (20, 40, 10**9):
        with pytest.raises(InputError, match=f"exceeds the cap of {MAX_SEARCH_DEGREE};"):
            min_period_search(degree)
    # 19 adds no balanced pattern to 18, so both are admitted and enumerated
    for degree in (MAX_SEARCH_DEGREE, MAX_SEARCH_DEGREE + 1):
        with pytest.raises(AssertionError, match="enumerated patterns"):
            min_period_search(degree)


def _signed_digits(v, width, count):
    """The count lowest base-2^width digits of v, each in [-2^(width-1), 2^(width-1))."""
    digits = []
    for _ in range(count):
        d = v & ((1 << width) - 1)
        if d >= 1 << (width - 1):
            d -= 1 << width
        digits.append(d)
        v = (v - d) >> width
    return digits


def _descartes_count(signs):
    """The sign changes of the cofactor's Descartes coefficients, up to 2."""
    q = _cofactor(signs)
    return min(poly.sign_changes(poly.shift_by_one(q[::-1])), 2)


def test_packed_screen_is_the_descartes_count(monkeypatch):
    checked = 0
    expected = []
    for n in range(2, 17, 2):
        powers, high = periodic._packing(n)
        for pattern in enumerate_balanced(n):
            if pattern[0] != 1:
                continue
            r = list(pattern)  # the pattern divided by x
            shifted = poly.shift_by_one(r[::-1])
            packed = sum(s * power for s, power in zip(pattern, powers))
            assert _signed_digits(packed, n + 1, n) == shifted, pattern.to_text()
            no_root = poly.sign_changes(shifted) == 0
            assert (packed & high == 0) == no_root, pattern.to_text()
            # the search's test: the biased digits all keep their top bit
            assert ((packed + high) & high == high) == no_root, pattern.to_text()
            # the count decoded from the digits is the cofactor's own
            count = _descartes_count(pattern)
            assert periodic._digit_changes(packed + high, n) == count, pattern.to_text()
            if count:
                expected.append((pattern, count))
            checked += 1
    assert checked == sum(math.comb(n, n // 2) // 2 for n in range(2, 17, 2))
    assert {count for _, count in expected} == {1, 2}
    # the search hands exactly the patterns that fail the screen to
    # pattern_roots, each with that count
    calls = []

    def recorded(pattern, *, changes=None):
        calls.append((pattern, changes))
        return periodic.RootReport(pattern, ())

    monkeypatch.setattr(periodic, "pattern_roots", recorded)
    assert all(hits == [] for hits in min_period_search(16).values())
    assert [p for p, _ in calls] == [
        p
        for n in range(2, 17, 2)
        for p in enumerate_balanced(n)
        if p[0] == 1 and poly.sign_changes(poly.shift_by_one(list(p)[::-1])) > 0
    ]
    assert calls == expected


def test_search_counts_only_multi_change_survivors_by_taylor_shift(monkeypatch):
    # the screen's count spares every survivor the Taylor shift; only the
    # Vincent-Collins-Akritas isolation of a 2-or-more-change cofactor
    # shifts polynomials
    multi = [
        p
        for n in range(2, 13, 2)
        for p in enumerate_balanced(n)
        if p[0] == 1 and _descartes_count(p) == 2
    ]
    assert len(multi) == 6
    isolated, outside = [], []
    shift, isolate = poly.shift_by_one, poly.isolate

    def counted_shift(p):
        if not isolated or isolated[-1] is None:
            outside.append(p)
        return shift(p)

    def recorded_isolate(q):
        isolated.append(q)
        intervals = isolate(q)
        isolated.append(None)
        return intervals

    monkeypatch.setattr(poly, "shift_by_one", counted_shift)
    monkeypatch.setattr(poly, "isolate", recorded_isolate)
    min_period_search(12)
    assert outside == []
    assert [q for q in isolated if q is not None] == [
        _squarefree_part(_cofactor(p)) for p in multi
    ]


def test_single_root_refinement_is_the_bisection(monkeypatch):
    single = []
    for n in range(2, 17, 2):
        for pattern in enumerate_balanced(n):
            q = _cofactor(pattern)
            if poly.sign_changes(poly.shift_by_one(q[::-1])) == 1:
                single.append((q, bisect_root(poly.exact_sign(q), 0.0, 1.0, TOL)))
    assert len(single) == 5506
    assert max(len(q) - 1 for q, _ in single) == 14
    for q, expected in single:
        assert poly.unit_interval_roots(q, 1) == [expected], q
    # an estimate in the wrong cell falls back to bisection from (0, 1)
    starts = []

    def recorded(f, lo, hi, tol):
        starts.append((lo, hi))
        return bisect_root(f, lo, hi, tol)

    newton = poly._newton_estimate
    monkeypatch.setattr(poly, "bisect_root", recorded)
    monkeypatch.setattr(
        poly, "_newton_estimate", lambda coeffs, lo, hi: newton(coeffs, lo, hi) + 2 * poly._CELL
    )
    for q, expected in single[:500]:
        starts.clear()
        assert poly.unit_interval_roots(q, 1) == [expected], q
        assert starts == [(0.0, 1.0)], q
    # coefficients past the float range never reach the estimate
    monkeypatch.setattr(poly, "_newton_estimate", None)
    wide = [-(1 << 53) - 1, 3 << 53]  # one root, (2^53 + 1) / (3 * 2^53)
    starts.clear()
    assert poly.unit_interval_roots(wide) == [bisect_root(poly.exact_sign(wide), 0.0, 1.0, TOL)]
    assert starts == [(0.0, 1.0)]


def _isolated(signs):
    """The polynomial and isolating intervals unit_interval_roots bisects on."""
    q = _cofactor(signs)
    changes = poly.sign_changes(poly.shift_by_one(q[::-1]))
    if changes < 2:
        return q, [(0, 0)] * changes
    q = _squarefree_part(q)
    return q, poly.isolate(q)


def _bisected_from_isolation(signs):
    q, intervals = _isolated(signs)
    sign = poly.exact_sign(q)
    return tuple(
        sorted(bisect_root(sign, c / (1 << k), (c + 1) / (1 << k), TOL) for c, k in intervals)
    )


@pytest.mark.parametrize("estimate", ["newton", "lo", "hi", "next cell"])
def test_roots_start_in_their_final_cell(monkeypatch, estimate):
    starts = []

    def recorded(f, lo, hi, tol):
        starts.append(hi - lo)
        return bisect_root(f, lo, hi, tol)

    monkeypatch.setattr(poly, "bisect_root", recorded)
    if estimate == "lo":
        monkeypatch.setattr(poly, "_newton_estimate", lambda q, lo, hi: lo)
    elif estimate == "hi":
        monkeypatch.setattr(poly, "_newton_estimate", lambda q, lo, hi: hi)
    elif estimate == "next cell":
        newton = poly._newton_estimate
        monkeypatch.setattr(
            poly, "_newton_estimate", lambda q, lo, hi: min(newton(q, lo, hi) + 2 * TOL, hi)
        )
    roots = 0
    for n in range(2, 15, 2):
        for pattern in enumerate_balanced(n):
            starts.clear()
            got = pattern_roots(pattern).roots
            assert got == _bisected_from_isolation(pattern), pattern.to_text()
            roots += len(got)
            if estimate == "newton":  # every bisection starts in its final cell
                assert all(width <= TOL for width in starts), pattern.to_text()
            else:  # every cell check fails, and bisection starts from isolation
                assert [width > TOL for width in starts] == [True] * len(got), pattern.to_text()
    assert roots == 1538


def test_search_16_is_pinned():
    # SHA-256 of one "<pattern> <root.hex()>" line per root, as the full
    # enumeration with bisection from every isolating interval printed them
    results = min_period_search(16)
    assert sum(map(len, results.values())) == 5736
    text = "".join(
        f"{hit.pattern.to_text()} {root.hex()}\n"
        for hits in results.values()
        for hit in hits
        for root in hit.roots
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "add80f245b3af38488293d7678b890dab00d890e218ebdca06f0abf018b94057"


def test_search_16_needs_no_fallback_bisection(monkeypatch):
    # every root's Newton estimate names its final cell, so _refine never
    # bisects from the isolating interval through degree 16
    fallbacks = []

    def recorded(f, lo, hi, tol):
        fallbacks.append((lo, hi))
        return bisect_root(f, lo, hi, tol)

    monkeypatch.setattr(poly, "bisect_root", recorded)
    min_period_search(16)
    assert fallbacks == []


def test_newton_stop_changes_no_root(monkeypatch):
    # _NEWTON_STOP only says when the estimate stops: a coarse stop names
    # the wrong cell more often, and the fallback bisection from the
    # isolating interval returns the same root
    expected = min_period_search(14)
    fallbacks = {}

    def recorded(f, lo, hi, tol):
        fallbacks[stop] += 1
        return bisect_root(f, lo, hi, tol)

    monkeypatch.setattr(poly, "bisect_root", recorded)
    for stop in (1e-2, 1e-4, 1e-8, 1e-12):
        fallbacks[stop] = 0
        monkeypatch.setattr(poly, "_NEWTON_STOP", stop)
        assert min_period_search(14) == expected, stop
    assert fallbacks[1e-2] > fallbacks[1e-4] > 0 == fallbacks[1e-8] == fallbacks[1e-12]


def test_fair_period_agrees_with_simulation():
    periods = 50
    n = len(GOLDEN)
    signs = tuple(PMPattern.from_text(GOLDEN).signs) * periods
    _, residuals = prefix_diagnostics(signs, PHI_INV)
    for m in range(1, periods + 1):
        assert abs(residuals[m * n - 1]) <= m * n * 1e-14
