"""Simulator conservation and identities, fairness verdicts, the classifier."""

import csv
import functools
import gc
import io
import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import soupdiv.periodic as periodic
from soupdiv import (
    INV_SQRT2,
    Certificate,
    DomainError,
    FairnessReport,
    FeasibilityKind,
    InputError,
    PMPattern,
    SimulationTrace,
    TraceRow,
    Verdict,
    auto_certificate,
    classify,
    construct_bounded,
    fairness_report,
    enumerate_balanced,
    geometric_fair_division,
    greedy_envelope,
    min_period_search,
    pattern_roots,
    plan_envelope,
    prefix_diagnostics,
    q_infinity,
    simulate,
    write_trace_csv,
)
from soupdiv.approx import Q_INF
from soupdiv.core import ROOT_MATCH_WINDOW, TOL, TRACE_TOL_PER_SCOOP, bisect_root, eval_pm

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
    empty_trace = SimulationTrace(0.5, (), array("d"), array("d"))
    with pytest.raises(InputError, match="cannot report on an empty trace"):
        fairness_report(empty_trace)


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


def csv_writer_reference(trace):
    """The trace's CSV through ``csv.writer``, from its rows: the schema's
    fields, reals with 15 significant digits."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("i", *TraceRow._fields[1:]))
    writer.writerows(
        (row.index, row.sign, row.stuff1_plus, row.stuff1_minus, f"{row.stuff2_plus:.15g}",
         f"{row.stuff2_minus:.15g}", row.imbalance1, f"{row.imbalance2:.15g}")
        for row in trace
    )
    return stream.getvalue()


def trace_csv(trace):
    stream = io.StringIO()
    write_trace_csv(trace, stream)
    return stream.getvalue()


_SEEDED_SIGNS = tuple(random.Random(3207).choices((1, -1), k=3207))


@pytest.mark.parametrize(
    "q, signs",
    [
        (0.74652, _SEEDED_SIGNS),
        (1 - 1e-7, _SEEDED_SIGNS),
        (0.7, (1,)),
        (0.9, (1,) * 3207),
    ],
    ids=["settles early", "never settles", "one scoop", "all plus"],
)
def test_write_trace_csv_matches_csv_writer(q, signs):
    trace = simulate(q, signs)
    assert trace_csv(trace) == csv_writer_reference(trace)


@pytest.mark.parametrize(
    "plus, minus",
    [
        ((0.0, -0.0, -0.0), (-0.0, 0.0, 0.0)),
        ((1.0, 0.0, 1.0), (math.nan, math.nan, math.nan)),
        ((0.5, math.inf, math.inf), (-0.0, -0.0, -0.0)),
        ((0.25, 0.25, 0.5), (0.125, 0.375, 0.375)),
    ],
    ids=["signed zeros", "nan", "inf", "changes at the end"],
)
def test_write_trace_csv_prints_each_value_as_stored(plus, minus):
    # 0.0 and -0.0 compare equal but print apart, and a NaN equals nothing
    trace = SimulationTrace(0.5, (1, -1, 1), array("d", plus), array("d", minus))
    assert trace_csv(trace) == csv_writer_reference(trace)
    # an empty trace has no rows, and its CSV is the header alone
    empty = SimulationTrace(0.5, (), array("d"), array("d"))
    assert list(empty) == []
    assert trace_csv(empty) == csv_writer_reference(empty)
    assert trace_csv(empty).count("\n") == 1


def test_write_trace_csv_streams_in_chunks():
    # the output is written as it is made, through ``write`` alone
    class Sink:
        def __init__(self):
            self.texts = []

        def write(self, text):
            self.texts.append(text)

    trace = simulate(0.999, _SEEDED_SIGNS * 4)
    sink = Sink()
    write_trace_csv(trace, sink)
    assert "".join(sink.texts) == csv_writer_reference(trace)
    assert max(map(len, sink.texts)) < len("".join(sink.texts)) / 10


def plate_bytes(rows):
    """The plate totals that ``rows`` read, as the bytes of two columns."""
    rows = list(rows)
    return [array("d", (row[field] for row in rows)).tobytes() for field in (4, 5)]


@pytest.mark.parametrize(
    "plus, minus",
    [
        ((0.25,), (0.5,)),
        ((-0.0,), (0.0, -0.0)),
        ((math.nan, 0.75), (0.25,)),
    ],
    ids=["one value", "signed zeros", "nan in the head"],
)
def test_short_plate_columns_read_their_last_value(plus, minus):
    # every scoop past a column's end has the column's last value, in every
    # read, as in the trace whose columns are written out to full length
    signs = (1, -1, 1)
    short = SimulationTrace(0.5, signs, array("d", plus), array("d", minus))
    columns = [array("d", c + c[-1:] * (len(signs) - len(c))) for c in (plus, minus)]
    full = SimulationTrace(0.5, signs, *columns)
    expected = [column.tobytes() for column in columns]
    assert plate_bytes(short) == expected
    assert plate_bytes(short[k] for k in range(3)) == expected
    assert plate_bytes(short[k] for k in range(-3, 0)) == expected
    assert plate_bytes([short.final]) == plate_bytes([full[-1]])
    assert repr(list(short)) == repr(list(full))
    assert trace_csv(short) == csv_writer_reference(short) == trace_csv(full)
    # an envelope at the last scoop reads the plates past both columns
    final2 = columns[0][-1] - columns[1][-1]
    for bound in (0.0, 1.0):
        report = fairness_report(short, {3: bound}.get, 1)
        assert report == fairness_report(full, {3: bound}.get, 1)
        fits = abs(final2) <= bound + 3 * TRACE_TOL_PER_SCOOP
        assert report.verdict is (Verdict.BOUNDED_FAIR_OBSERVED if fits else Verdict.INCONCLUSIVE)
    assert fairness_report(short) == fairness_report(full)


@pytest.mark.parametrize("q, kept", [(0.62, 78), (0.75, 128), (0.99, 3_336), (1 - 1e-7, 100_000)])
def test_simulate_keeps_the_plate_totals_until_they_settle(q, kept):
    # 10^5 scoops of the blocks at 0.62 and of the greedy pairing at 0.75,
    # 0.99 and 1 - 1e-7, where nothing settles
    if q < INV_SQRT2:
        seq = construct_bounded(q, 100_000).seq
    else:
        seq = geometric_fair_division(q, 100_000)
    trace = simulate(q, seq)
    assert len(trace) == 100_000
    assert (len(trace.stuff2_plus), len(trace.stuff2_minus)) == (kept, kept)


def test_simulate_peak_memory_is_columnar():
    # 10^5 scoops: two 8-byte columns plus the sign tuple, not one object
    # per scoop (the row-per-scoop trace peaked at about 30 MiB); at
    # q = 0.75 the plates settle within 128 scoops, and the trace keeps
    # those alone (full-length columns took 1.53 MiB); at q = 1 - 1e-7 the
    # plates never settle and every scoop runs the loop
    signs = tuple(geometric_fair_division(0.75, 100_000).signs)
    for q in (0.75, 1 - 1e-7):
        tracemalloc.start()
        try:
            trace = simulate(q, signs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 100_000
        assert peak <= 5 * 2**20, (q, peak / 2**20)
        if q == 0.75:
            assert retained <= 64 * 2**10, retained / 2**10


@pytest.mark.parametrize("q", [0.62, 0.75, 1 - 1e-7])
def test_simulate_allocates_each_plate_column_once(q):
    # the columns are kept as the loop grows them, so the peak is what the
    # trace keeps, within the slack of one column's growth
    if q < INV_SQRT2:
        seq = construct_bounded(q, 100_000).seq
    else:
        seq = geometric_fair_division(0.75, 100_000)
    tracemalloc.start()
    try:
        trace = simulate(q, seq)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.signs is seq
    assert peak <= retained + 64 * 2**10, (retained / 2**20, peak / 2**20)


def whole_loop_columns(q, signs):
    """The sign sums and simulate's plate columns from one loop over every
    scoop, without the settled plates' early stop: the reference for bit
    identity."""
    imbalance1, stuff2_plus, stuff2_minus = array("q"), array("d"), array("d")
    d = 0
    plus2 = minus2 = 0.0
    surface_power = 1.0
    for s in signs:
        delivered2 = (1.0 - q) * surface_power
        surface_power *= q
        if s > 0:
            plus2 += delivered2
        else:
            minus2 += delivered2
        d += s
        imbalance1.append(d)
        stuff2_plus.append(plus2)
        stuff2_minus.append(minus2)
    return imbalance1, stuff2_plus, stuff2_minus


@functools.lru_cache(maxsize=1)
def trace_reference_columns(trace):
    """``whole_loop_columns`` at a simulated trace's q and signs: the trace's
    full columns, rebuilt without reading it."""
    return whole_loop_columns(trace.q, trace.signs)


def test_simulate_is_bit_identical_to_the_whole_loop(settle_q, sign_cases):
    q = settle_q
    rng = random.Random(9)
    for kind, signs in sign_cases(q).items():
        n = len(signs)
        full = [column.tobytes() for column in whole_loop_columns(q, signs)]
        for m in (1, 2, 3, rng.randint(4, 200), rng.randint(201, n), n):
            # every row's sign sum and plate totals, those read past the
            # stored plate columns included
            columns = sums, plus, minus = array("q"), array("d"), array("d")
            for row in simulate(q, signs[:m]):
                sums.append(row.imbalance1)
                plus.append(row.stuff2_plus)
                minus.append(row.stuff2_minus)
            assert [c.tobytes() for c in columns] == [b[: 8 * m] for b in full], (kind, m)


def test_trace_is_its_own_row_sequence():
    trace = simulate(0.5, "+-+-")
    assert trace.rows is trace
    assert [row.imbalance1 for row in trace] == [1, 0, 1, 0]
    assert trace[-1] == trace.final == trace[3]


def test_trace_index_bounds():
    signs = tuple(random.Random(3).choices((1, -1), k=300))
    trace = simulate(0.6, signs)
    rows = list(trace)
    n = len(rows)
    for i in range(-n, n):
        assert trace[i] == rows[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[bad]


class CountingSigns(tuple):
    """A sign tuple that counts the signs read from it."""

    reads = 0

    def __iter__(self):
        for s in tuple.__iter__(self):
            self.reads += 1
            yield s

    def __getitem__(self, i):
        item = tuple.__getitem__(self, i)
        self.reads += len(item) if isinstance(i, slice) else 1
        return item


def counting_trace():
    """A 2,000-scoop trace whose sign column counts its reads."""
    signs = tuple(random.Random(4).choices((1, -1), k=2_000))
    columns = simulate(0.6, signs)
    counting = CountingSigns(signs)
    return SimulationTrace(0.6, counting, columns.stuff2_plus, columns.stuff2_minus), counting


@pytest.mark.parametrize("read", [list, lambda trace: trace[-1]], ids=["iter", "last row"])
def test_trace_reads_make_one_pass(read):
    # each read takes at most two passes over the signs (the sign column
    # and the sign sums); reading row by row through trace[k] would take
    # about n^2 / 2 reads
    trace, counting = counting_trace()
    read(trace)
    assert counting.reads <= 2 * len(trace), counting.reads


@pytest.mark.parametrize("read", [
    reversed,
    lambda trace: trace[1:3],
    lambda trace: trace[::-1],
    lambda trace: trace[-2::-3],
], ids=["reversed", "slice", "reversed slice", "stepped slice"])
def test_trace_refuses_sequence_reads(read):
    # no fallback to building the rows one trace[k] at a time
    trace, counting = counting_trace()
    with pytest.raises(TypeError):
        read(trace)
    assert counting.reads == 0


@pytest.mark.parametrize("name", ["index", "count"])
def test_trace_has_no_sequence_search(name):
    with pytest.raises(AttributeError):
        getattr(simulate(0.5, "+-"), name)


def test_simulate_keeps_a_full_length_pattern():
    seq = geometric_fair_division(0.75, 10)
    assert simulate(0.75, seq).signs is seq


def test_simulate_keeps_a_plain_sign_tuple():
    # a tuple of int +1/-1 is the sign column as it is, so simulating it
    # costs what simulating the same signs as a pattern costs
    seq = geometric_fair_division(0.75, 100_000)
    plain = tuple(seq)
    measured = []
    for signs in (seq, plain):
        tracemalloc.start()
        try:
            trace = simulate(0.75, signs)
            measured.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert trace.signs is signs
    (pattern_retained, pattern_peak), (plain_retained, plain_peak) = measured
    assert abs(plain_retained - pattern_retained) <= 64 * 2**10, measured
    assert abs(plain_peak - pattern_peak) <= 64 * 2**10, measured


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


@pytest.mark.parametrize("signs", [
    (1,) * 5_000,
    (1, -1) * 100 + (1,) * 300 + (-1, 1) * 100,
    (1,) * 50 + (-1,) * 400 + (1,) * 350,
    (1,) * 4_097 + (-1,) * 4_097,
    (-1,) * 4_096 + (1,) * 8_000,
    tuple(random.Random(6).choices((1, -1), k=30_000)),
], ids=["all plus", "past the small-int cache", "negative extremum", "peak after a chunk",
        "trough ends a chunk", "random walk"])
def test_fairness_report_max_sign_sum_is_every_row(signs):
    trace = simulate(0.7, signs)
    report = fairness_report(trace)
    assert report.max_abs_imbalance1 == max(abs(row.imbalance1) for row in trace)
    assert report == walk_every_scoop_report(trace)


def test_fairness_report_transient_does_not_grow_with_the_walk():
    # every sign sum of an all-'+' walk is a new int beyond the small-int
    # cache; holding one of each would take several MiB
    trace = simulate(0.7, (1,) * 100_000)
    tracemalloc.start()
    try:
        report = fairness_report(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_abs_imbalance1 == 100_000 == max(abs(row.imbalance1) for row in trace)
    assert report.verdict is Verdict.DIVERGING
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


def walk_every_scoop_report(trace, envelope=None, imbalance1_cap=None):
    """fairness_report with one envelope walk over every scoop, whatever
    the divergence test or the cap say: the reference for its early stops."""
    n = len(trace)
    sums, plus, minus = trace_reference_columns(trace)
    max_abs1 = max(max(sums), -min(sums))
    final2 = plus[-1] - minus[-1]
    checked = 0
    enveloped_ok = True
    if envelope is not None:
        for k in range(1, n + 1):
            bound = envelope(k)
            if bound is not None:
                checked += 1
                budget = k * TRACE_TOL_PER_SCOOP
                imbalance2 = plus[k - 1] - minus[k - 1]
                enveloped_ok = enveloped_ok and abs(imbalance2) <= bound + budget
    if 2 * abs(sums[-1]) >= n:
        verdict = Verdict.DIVERGING
    elif checked and enveloped_ok and imbalance1_cap is not None and max_abs1 <= imbalance1_cap:
        verdict = Verdict.BOUNDED_FAIR_OBSERVED
    else:
        verdict = Verdict.INCONCLUSIVE
    return FairnessReport(max_abs1, final2, verdict)


def settled_scoop(trace):
    """The first scoop from which both plate totals keep their final values."""
    _, plus, minus = trace_reference_columns(trace)
    k = len(trace)
    while k > 1 and plus[k - 2] == plus[-1] and minus[k - 2] == minus[-1]:
        k -= 1
    return k


@functools.lru_cache(maxsize=None)
def _plan_signs(q, n):
    return construct_bounded(q, n).seq[:n]


@st.composite
def reported_traces(draw):
    """A short trace at any q, or one long enough to settle: seeded random
    signs, or a greedy or block division simulated at its own q, so that its
    final |imbalance2| lies within the rounding budget."""
    kind = draw(st.sampled_from(("short", "short greedy", "random", "greedy", "blocks")))
    if kind == "short":
        q = draw(st.floats(min_value=0.05, max_value=0.99))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=60))
    elif kind == "short greedy":
        q = draw(st.floats(min_value=0.05, max_value=0.99))
        signs = geometric_fair_division(0.75, 2 * draw(st.integers(1, 30)))
    elif kind == "random":
        q = draw(st.floats(min_value=0.05, max_value=0.99))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        signs = tuple(rng.choices((1, -1), k=draw(st.integers(1, 4_000))))
    elif kind == "greedy":
        q = draw(st.floats(min_value=INV_SQRT2, max_value=0.99))
        signs = geometric_fair_division(q, 2 * draw(st.integers(1, 2_000)))
    else:
        q = draw(st.sampled_from((0.59, 0.62, 0.65, 0.7)))
        signs = _plan_signs(q, draw(st.integers(2, 4_000)))
    return simulate(q, signs)


@settings(max_examples=300, deadline=None)
@given(trace=reported_traces(), data=st.data())
def test_fairness_report_matches_a_walk_over_every_scoop(trace, data):
    n = len(trace)
    settled = settled_scoop(trace)
    # scoops anywhere, around the settled scoop, and only after it
    enveloped = (
        data.draw(st.sets(st.integers(1, n), max_size=20), label="anywhere")
        | data.draw(st.sets(st.integers(max(1, settled - 3), min(n, settled + 3))),
                    label="around settled")
        | data.draw(st.sets(st.integers(settled, n), max_size=5), label="after settled")
    )
    # a bound at 0, half, all or twice |imbalance2| fails or holds, and may
    # hold only through the rounding budget
    bounds = {
        k: abs(trace[k - 1].imbalance2) * data.draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))
        for k in sorted(enveloped)
    }
    envelope = data.draw(st.sampled_from((None, bounds.get)), label="envelope")
    max_abs1 = max(abs(row.imbalance1) for row in trace)
    cap = data.draw(st.none() | st.integers(0, 3) | st.just(max_abs1), label="cap")
    assert fairness_report(trace, envelope, cap) == walk_every_scoop_report(trace, envelope, cap)


def test_fairness_report_calls_the_envelope_only_when_it_decides():
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100))
    calls = []

    def envelope(k):
        calls.append(k)
        return 0.0 if k == 10 else None

    # the walk stops at the first failed bound
    assert fairness_report(trace, envelope, 1).verdict is Verdict.INCONCLUSIVE
    assert calls == list(range(1, 11))
    # no cap, a cap exceeded, or a diverging trace: the envelope is never called
    assert [
        fairness_report(trace, envelope).verdict,
        fairness_report(trace, envelope, 0).verdict,
        fairness_report(simulate(q, (1,) * 10), envelope, 10).verdict,
    ] == [Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE, Verdict.DIVERGING]
    assert calls == list(range(1, 11))


def _lead_then_follow(s):
    # at q = 1/2 the first scoop's 1/2 on one plate is matched in the limit
    # by scoops 2 to 60 on the other, which stays in motion until scoop 55;
    # the last 58 scoops bring the sign sum back to 0 and change neither
    # plate
    return (s,) + (-s,) * 59 + (s,) * 58


@pytest.mark.parametrize(
    "q, signs, bounds, cap, verdict",
    [
        # every enveloped scoop lies after the settled one
        (0.75, geometric_fair_division(0.75, 1_000), {1_000: 0.0}, 1,
         Verdict.BOUNDED_FAIR_OBSERVED),
        # one plate settles at scoop 1, the other after scoop 30, where the
        # bound fails although the final imbalance2 is within the budget
        (0.5, _lead_then_follow(1), {1: 1.0, 30: 0.0}, 59, Verdict.INCONCLUSIVE),
        (0.5, _lead_then_follow(-1), {1: 1.0, 30: 0.0}, 59, Verdict.INCONCLUSIVE),
        (0.5, _lead_then_follow(1), {1: 1.0, 30: 2.0**-29}, 59,
         Verdict.BOUNDED_FAIR_OBSERVED),
        # settled early, but the final imbalance2 is beyond any budget
        (0.3, tuple(random.Random(5).choices((1, -1), k=400)), {1: 1.0, 300: 0.0}, 400,
         Verdict.INCONCLUSIVE),
    ],
    ids=["after settled", "minus settles last", "plus settles last", "late pass",
         "unfair settled"],
)
def test_fairness_report_exit_keeps_the_verdict(q, signs, bounds, cap, verdict):
    trace = simulate(q, signs)
    report = fairness_report(trace, bounds.get, cap)
    assert report == walk_every_scoop_report(trace, bounds.get, cap)
    assert report.verdict is verdict


def test_fairness_report_stops_at_the_settled_scoop():
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100_000))
    settled = settled_scoop(trace)
    bound = greedy_envelope(q)
    calls = []

    def envelope(k):
        calls.append(k)
        return bound(k)

    report = fairness_report(trace, envelope, 1)
    assert report == walk_every_scoop_report(trace, bound, 1)
    assert report.verdict is Verdict.BOUNDED_FAIR_OBSERVED
    assert settled < 200
    assert len(calls) <= settled + 2, (len(calls), settled)


@pytest.mark.parametrize("bad", [-1.0, math.nan, -math.inf])
def test_fairness_report_refuses_a_bound_below_zero(bad):
    q = 0.75
    trace = simulate(q, geometric_fair_division(q, 100))
    envelope = lambda k: bad if k == 2 else None
    with pytest.raises(InputError, match="envelope bound at scoop 2 must be a non-negative number"):
        fairness_report(trace, envelope, 1)


def dict_plan_bounds(plan):
    """plan_envelope's bounds as one dict over every block end, built
    up front: the reference for the lazy closure."""
    q = plan.certificate.q
    scale = (1.0 - q) / q
    return {k: scale * plan.certificate.A * q**k for k in plan.block_ends if k > 0}.get


@pytest.mark.parametrize("q", [0.59, 0.62, 0.70])
def test_plan_envelope_is_bit_identical_to_a_dict_of_block_ends(q):
    n = 10_000
    plan = construct_bounded(q, n)
    lazy, reference = plan_envelope(plan), dict_plan_bounds(plan)
    hexed = lambda b: None if b is None else b.hex()
    for k in range(max(n, plan.block_ends[-1]) + 2):
        assert hexed(lazy(k)) == hexed(reference(k)), k


def test_plan_envelope_builds_nothing_per_block():
    plan = construct_bounded(0.62, 100_000)
    tracemalloc.start()
    try:
        envelope = plan_envelope(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert envelope(plan.block_ends[-1]) is not None
    assert peak <= 64 * 2**10, peak


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


def test_classify_certificate_regime_starts_above_q_inf():
    # the 663 floats from 0.584575133364342 through Q_INF lie below the
    # root of the quartic, where no certificate holds
    for q in (0.584575133364342, Q_INF):
        assert classify(q).kind is FeasibilityKind.UNKNOWN
    above = classify(math.nextafter(Q_INF, 1.0))
    assert above.kind is FeasibilityKind.BOUNDED_FAIR_CERTIFICATE


def test_classify_certificate_regime_carries_a_certificate():
    # the lowest and the highest float of the regime (auto N = 32 and 2):
    # above q_inf the N = 64 gap inequality holds, and for N >= 2 it implies
    # the base one, so a certificate, never a failure, is attached
    for q in (math.nextafter(Q_INF, 1.0), math.nextafter(INV_SQRT2 - TOL, 0.0)):
        result = classify(q)
        assert result.kind is FeasibilityKind.BOUNDED_FAIR_CERTIFICATE
        assert isinstance(result.certificate, Certificate), q
        assert result.certificate.q == q


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
    for q, search_degree in ((0.6, 7), (0.56, 10.0)):
        with pytest.raises(InputError, match="search_degree must be a positive even integer"):
            classify(q, search_degree=search_degree)


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


def test_classify_root_is_the_bisection_of_the_written_out_loop():
    # reference: bisection of a written-out Horner loop with eval_pm's factor x
    for q in _open_window_roots():
        result = classify(q, search_degree=12)
        assert result.kind is FeasibilityKind.PERIODIC_FAIR
        descending = result.pattern[::-1]

        def value(x):
            acc = 0.0
            for s in descending:
                acc = acc * x + s
            return acc * x

        lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
        assert result.root == bisect_root(value, lo, hi, TOL), q


def test_classify_answers_degree_64():
    q = 0.56
    result = classify(q, search_degree=64)
    assert result.kind is FeasibilityKind.PERIODIC_FAIR
    assert result.pattern.degree <= 64
    f_lo = eval_pm(result.pattern, q - 1e-9)
    f_hi = eval_pm(result.pattern, q + 1e-9)
    assert f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0)
    assert abs(result.root - q) <= 1e-9


@functools.lru_cache(maxsize=None)
def _divisions():
    """A greedy and a block division of 2,000 scoops and their traces."""
    greedy = geometric_fair_division(0.75, 2000)
    plan = construct_bounded(0.62, 2000)
    return greedy, simulate(0.75, greedy), plan, simulate(0.62, plan.seq)


_PUBLIC_CALLS = {
    "classify infeasible": lambda: classify(0.4),
    "classify greedy": lambda: classify(0.75),
    "classify certificate": lambda: classify(0.62),
    "classify planted root, degree 10": lambda: classify(0.5436890126916784, search_degree=10),
    "classify planted root, degree 64": lambda: classify(0.5436890126916784, search_degree=64),
    "classify unknown, degree 10": lambda: classify(0.55, search_degree=10),
    "classify hit, degree 64": lambda: classify(0.55, search_degree=64),
    "min_period_search": lambda: min_period_search(8),
    "geometric_fair_division": lambda: geometric_fair_division(0.75, 2000),
    "construct_bounded": lambda: construct_bounded(0.62, 2000),
    "prefix_diagnostics": lambda: prefix_diagnostics(_divisions()[0], 0.75),
    "simulate": lambda: simulate(0.75, _divisions()[0]),
    "write_trace_csv": lambda: write_trace_csv(simulate(0.75, _divisions()[0]), io.StringIO()),
    "fairness_report greedy envelope": lambda: fairness_report(
        _divisions()[1], greedy_envelope(0.75), 1
    ),
    "fairness_report plan envelope": lambda: fairness_report(
        _divisions()[3], plan_envelope(_divisions()[2]), 2 * _divisions()[2].certificate.N
    ),
    "auto_certificate": lambda: auto_certificate(0.62),
    "q_infinity": lambda: q_infinity(),
}


@pytest.mark.parametrize("name", list(_PUBLIC_CALLS))
def test_public_calls_leave_no_cyclic_garbage(name):
    # garbage that only the cyclic collector frees makes some later call pay
    # for a collection; test_cli checks cli.run the same way
    _divisions()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _PUBLIC_CALLS[name]()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
