"""Simulator conservation and identities, fairness verdicts, the classifier."""

import csv
import functools
import io
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import soupdiv.periodic as periodic
from soupdiv import (
    INV_SQRT2,
    Certificate,
    DomainError,
    FeasibilityKind,
    InputError,
    PMPattern,
    Verdict,
    classify,
    construct_bounded,
    fairness_report,
    enumerate_balanced,
    geometric_fair_division,
    greedy_envelope,
    pattern_roots,
    plan_envelope,
    prefix_diagnostics,
    q_infinity,
    simulate,
    write_trace_csv,
)
from soupdiv.core import ROOT_MATCH_WINDOW, TOL, bisect_root, eval_pm

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def test_simulate_deliveries_q_half():
    trace = simulate(0.5, "+-+-")
    # (1-q) q^(i-1) = 2^-i is exact in binary floating point, so the plates
    # hold exact partial sums of 1/2, 1/4, 1/8, 1/16 in sign order
    rows = list(trace.rows)
    assert [row.stuff2_plus for row in rows] == [0.5, 0.5, 0.625, 0.625]
    assert [row.stuff2_minus for row in rows] == [0.0, 0.25, 0.25, 0.3125]
    # one whole scoop of the dissolved stuff per scoop
    assert [row.stuff1_plus + row.stuff1_minus for row in rows] == [1, 2, 3, 4]
    assert [row.index for row in rows] == [1, 2, 3, 4]
    assert trace.final.imbalance2 == 0.3125


def test_simulate_conservation():
    trace = simulate(0.5, "+-+-")
    final = trace.final
    assert final.stuff2_plus + final.stuff2_minus + 0.5**4 == pytest.approx(1.0, abs=1e-14)


def test_simulate_imbalance1_trace():
    trace = simulate(0.3, "+---++")
    assert [row.imbalance1 for row in trace.rows] == [1, 0, -1, -2, -1, 0]
    sums, _ = prefix_diagnostics("+---++", 0.3)
    assert [row.imbalance1 for row in trace.rows] == sums


def test_simulate_residual_identity():
    rng = random.Random(77)
    for _ in range(15):
        k = rng.randint(1, 200)
        q = rng.uniform(0.1, 0.95)
        signs = tuple(rng.choice((1, -1)) for _ in range(k))
        trace = simulate(q, signs)
        _, residuals = prefix_diagnostics(signs, q)
        scale = (1.0 - q) / q
        for row, residual in zip(trace.rows, residuals):
            assert abs(row.imbalance2 - scale * residual) <= row.index * 1e-15


def test_simulate_refuses_an_empty_division():
    for empty in ("", (), []):
        with pytest.raises(InputError, match="cannot simulate an empty sign sequence"):
            simulate(0.5, empty)


def reference_simulate(q, signs, steps):
    """Row-at-a-time simulator and CSV writer kept as the reference for the
    columnar trace: one tuple per scoop in CSV column order, the same float
    operations in the same order, and the CSV text they print as."""
    rows = []
    plus1 = minus1 = 0
    plus2 = minus2 = 0.0
    surface_power = 1.0
    for i in range(1, steps + 1):
        s = signs[i - 1]
        delivered2 = (1.0 - q) * surface_power
        surface_power *= q
        if s > 0:
            plus1 += 1
            plus2 += delivered2
        else:
            minus1 += 1
            minus2 += delivered2
        rows.append((i, s, plus1, minus1, plus2, minus2, plus1 - minus1, plus2 - minus2))
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["i", "sign", "stuff1_plus", "stuff1_minus", "stuff2_plus",
                     "stuff2_minus", "imbalance1", "imbalance2"])
    for i, s, p1, m1, p2, m2, d1, d2 in rows:
        writer.writerow([i, s, p1, m1, f"{p2:.15g}", f"{m2:.15g}", d1, f"{d2:.15g}"])
    return rows, stream.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(min_value=1e-3, max_value=0.999),
    signs=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=500),
    data=st.data(),
)
def test_simulate_conservation_property(q, signs, data):
    steps = data.draw(st.integers(1, len(signs)), label="steps")
    trace = simulate(q, signs[:steps])
    rows = trace.rows
    listed = list(rows)
    assert len(trace) == len(rows) == len(listed) == steps
    _, residuals = prefix_diagnostics(signs[:steps], q)
    scale = (1.0 - q) / q
    for k, row in enumerate(listed, start=1):
        assert row.index == k and row.sign == signs[k - 1]
        assert row.stuff1_plus + row.stuff1_minus == k
        assert row.stuff1_plus - row.stuff1_minus == row.imbalance1
        assert abs(row.stuff2_plus + row.stuff2_minus + q**k - 1.0) <= 1e-12
        assert abs(row.imbalance2 - scale * residuals[k - 1]) <= k * 1e-15
    # the row view agrees with itself
    for i in range(steps):
        assert rows[i] == listed[i]
        assert rows[i - steps] == listed[i]
    assert rows[-1] == trace.final == listed[-1]
    for bad in (steps, -steps - 1):
        with pytest.raises(IndexError):
            rows[bad]
    # bit-identical to the row-at-a-time reference, CSV bytes included
    reference_rows, reference_csv = reference_simulate(q, signs, steps)
    assert [tuple(row) for row in listed] == reference_rows
    stream = io.StringIO()
    write_trace_csv(trace, stream)
    assert stream.getvalue() == reference_csv


def test_simulate_peak_memory_is_columnar():
    # 10^5 scoops: three 8-byte columns plus the sign tuple, not one object
    # per scoop (the row-per-scoop trace peaked at about 30 MiB)
    signs = tuple(geometric_fair_division(0.75, 100_000).signs)
    tracemalloc.start()
    try:
        trace = simulate(0.75, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 100_000
    assert peak <= 5 * 2**20, peak / 2**20


def test_trace_is_its_own_row_sequence():
    trace = simulate(0.5, "+-+-")
    assert trace.rows is trace
    assert [row.imbalance1 for row in trace] == [1, 0, 1, 0]
    assert trace[-1] == trace.final == trace[3]


def test_trace_slices_and_index_bounds():
    trace = simulate(0.5, "+-+-")
    rows = list(trace)
    assert trace[1:3] == rows[1:3]
    assert trace[-3:] == rows[-3:]
    assert trace[::-2] == rows[::-2]
    assert trace[5:] == []
    for bad in (4, -5):
        with pytest.raises(IndexError):
            trace[bad]


def test_simulate_keeps_a_full_length_pattern():
    seq = geometric_fair_division(0.75, 10)
    assert simulate(0.75, seq).signs is seq


def test_fairness_report_peak_memory():
    # the verdict needs one pass over the columns, nothing per scoop
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100_000))
    envelope = greedy_envelope(q)
    tracemalloc.start()
    try:
        report = fairness_report(trace, envelope=envelope, imbalance1_cap=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.BOUNDED_FAIR_OBSERVED
    assert peak <= 2**20, peak / 2**20


def test_golden_period_imbalance_returns_to_zero():
    signs = tuple(PMPattern.from_text("+---++").signs) * 50
    trace = simulate(PHI_INV, signs)
    for m in range(1, 51):
        assert abs(trace.rows[6 * m - 1].imbalance2) <= 3e-13


def test_fairness_report_greedy_bounded():
    q = 0.75
    seq = geometric_fair_division(q, 2000)
    trace = simulate(q, seq)
    report = fairness_report(trace, envelope=greedy_envelope(q), imbalance1_cap=1)
    assert report.verdict is Verdict.BOUNDED_FAIR_OBSERVED
    assert report.max_abs_imbalance1 == 1
    bound = greedy_envelope(q)
    for row in trace.rows:  # the envelope is defined at every even scoop count
        if row.index % 2 == 0:
            assert abs(row.imbalance2) <= bound(row.index) + 1e-10
        else:
            assert bound(row.index) is None


def test_fairness_report_certificate_plan():
    q = 0.62
    plan = construct_bounded(q, 2000)
    trace = simulate(q, plan.seq)
    cap = 2 * plan.certificate.N
    report = fairness_report(trace, envelope=plan_envelope(plan), imbalance1_cap=cap)
    assert report.verdict is Verdict.BOUNDED_FAIR_OBSERVED


def test_fairness_report_diverging():
    trace = simulate(0.9, (1,) * 1000)
    report = fairness_report(trace)
    assert report.verdict is Verdict.DIVERGING
    assert report.max_abs_imbalance1 == 1000


def test_fairness_report_inconclusive_without_bounds():
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100))
    assert fairness_report(trace).verdict is Verdict.INCONCLUSIVE


def test_fairness_report_checks_every_enveloped_scoop():
    # the envelope fails at scoop 2 and holds at scoop 100, the last one
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100))
    envelope = lambda k: 0.0 if k == 2 else (1.0 if k == 100 else None)
    report = fairness_report(trace, envelope=envelope, imbalance1_cap=1)
    assert report.verdict is Verdict.INCONCLUSIVE


def test_classify_infeasible():
    result = classify(0.4)
    assert result.kind is FeasibilityKind.INFEASIBLE
    # witness gap q - sum_{i>=2} q^i = (q - 2q^2)/(1-q)
    assert result.witness_gap == pytest.approx((0.4 - 2 * 0.16) / 0.6, abs=1e-15)
    assert classify(0.5).kind is FeasibilityKind.INFEASIBLE


def test_classify_greedy_regime():
    assert classify(0.75).kind is FeasibilityKind.BOUNDED_FAIR_GREEDY
    assert classify(math.sqrt(0.5)).kind is FeasibilityKind.BOUNDED_FAIR_GREEDY


def test_classify_and_greedy_share_the_regime_boundary():
    # a decimal entry of 1/sqrt(2) inside the admission band is greedy for
    # both; the first float below the band is greedy for neither
    below = math.nextafter(INV_SQRT2 - TOL, 0.0)
    for q in (0.70710678118555, INV_SQRT2 - TOL, INV_SQRT2 - 5e-13, INV_SQRT2):
        assert classify(q).kind is FeasibilityKind.BOUNDED_FAIR_GREEDY, q
        assert len(geometric_fair_division(q, 4)) == 4
    assert classify(below).kind is FeasibilityKind.BOUNDED_FAIR_CERTIFICATE
    with pytest.raises(DomainError):
        geometric_fair_division(below, 4)


def test_classify_certificate_regime():
    result = classify(0.6)
    assert result.kind is FeasibilityKind.BOUNDED_FAIR_CERTIFICATE
    assert isinstance(result.certificate, Certificate)


def test_classify_unknown():
    result = classify(0.56)
    assert result.kind is FeasibilityKind.UNKNOWN
    assert result.searched_degree == 12


def test_classify_periodic_fair_root():
    # degree-8 pattern +----+++ has a root near 0.54369, below the
    # certificate threshold, so only the periodic search can place it
    q = 0.5436890126916784
    result = classify(q, search_degree=8)
    assert result.kind is FeasibilityKind.PERIODIC_FAIR
    assert result.pattern is not None
    assert abs(result.root - q) <= 1e-9


def test_classify_agrees_with_grid_root_finder():
    # Oracle: every grid-plus-bisection root of every balanced pattern of
    # degree <= 8, in classify's search order (degree, then lexicographic).
    q_inf = q_infinity(1e-12)
    oracle = [
        (pattern, root)
        for degree in range(2, 9, 2)
        for pattern in enumerate_balanced(degree)
        for root in pattern_roots(pattern).roots
    ]
    rng = random.Random(2021)
    qs = [root for _, root in oracle if 0.5 < root <= q_inf]
    assert qs  # the open window holds planted roots at degree 8
    qs += [rng.uniform(0.5, q_inf) for _ in range(10)]
    for q in qs:
        matches = [p for p, root in oracle if abs(root - q) <= 1e-9]
        result = classify(q, search_degree=8)
        if matches:
            assert result.kind is FeasibilityKind.PERIODIC_FAIR
            assert result.pattern == matches[0]
            assert abs(result.root - q) <= 1e-9
        else:
            assert result.kind is FeasibilityKind.UNKNOWN
            assert result.searched_degree == 8


def test_classify_threshold_monotonicity():
    q_inf = q_infinity(1e-12)
    inv_sqrt2 = math.sqrt(0.5)
    rng = random.Random(11)
    for _ in range(40):
        q = rng.uniform(0.02, 0.98)
        kind = classify(q, search_degree=2).kind
        if q <= 0.5:
            assert kind is FeasibilityKind.INFEASIBLE
        elif q >= inv_sqrt2:
            assert kind is FeasibilityKind.BOUNDED_FAIR_GREEDY
        elif q > q_inf:
            assert kind is FeasibilityKind.BOUNDED_FAIR_CERTIFICATE
        else:
            assert kind is FeasibilityKind.UNKNOWN


def test_classify_validation():
    with pytest.raises(InputError):
        classify(0.6, search_degree=7)


def test_classify_refuses_oversized_search_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("visited a prefix node before checking the degree cap")

    # _excluded runs first at every node, so refusing it catches any visit
    monkeypatch.setattr(periodic, "_excluded", refuse)
    monkeypatch.setattr(periodic, "_power_table", refuse)
    with pytest.raises(InputError, match="degree 66 exceeds the cap of 64"):
        classify(0.55, search_degree=66)
    # outside the open window no pattern is searched, so nothing is refused
    assert classify(0.75, search_degree=66).kind is FeasibilityKind.BOUNDED_FAIR_GREEDY


def test_classify_node_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(periodic, "MAX_MEMBERSHIP_NODES", 40)
    with pytest.raises(InputError, match="more than 40 prefix nodes"):
        classify(0.56, search_degree=12)


def _enumerated_classify(q, search_degree):
    """The open-window branch of classify as it was before the pruned search:
    every balanced pattern in order, tested on the window ends."""
    lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
    for degree in range(2, search_degree + 1, 2):
        for pattern in enumerate_balanced(degree):
            f_lo, f_hi = eval_pm(pattern, lo), eval_pm(pattern, hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
                return pattern, bisect_root(lambda x: eval_pm(pattern, x), lo, hi, TOL)
    return None, None


@functools.lru_cache(maxsize=None)
def _open_window_roots():
    q_inf = q_infinity(1e-12)
    return tuple(
        root
        for degree in range(2, 13, 2)
        for pattern in enumerate_balanced(degree)
        for root in pattern_roots(pattern).roots
        if 0.5 < root <= q_inf
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    planted=st.booleans(),
    search_degree=st.sampled_from(range(2, 13, 2)),
)
def test_classify_search_equals_enumeration(data, planted, search_degree):
    if planted:
        q = data.draw(st.sampled_from(_open_window_roots()), label="q")
    else:
        q = data.draw(
            st.floats(0.5, q_infinity(1e-12), exclude_min=True), label="q"
        )
    result = classify(q, search_degree=search_degree)
    pattern, root = _enumerated_classify(q, search_degree)
    if pattern is None:
        assert result.kind is FeasibilityKind.UNKNOWN
        assert result.searched_degree == search_degree
    else:
        assert result.kind is FeasibilityKind.PERIODIC_FAIR
        assert result.pattern == pattern
        assert result.root == root


def test_classify_answers_degree_64():
    q = 0.56
    result = classify(q, search_degree=64)
    assert result.kind is FeasibilityKind.PERIODIC_FAIR
    assert result.pattern.degree <= 64
    f_lo = eval_pm(result.pattern, q - 1e-9)
    f_hi = eval_pm(result.pattern, q + 1e-9)
    assert f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0)
    assert abs(result.root - q) <= 1e-9
