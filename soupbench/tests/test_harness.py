"""Self-tests of the benchmark harness: python3 -m pytest soupbench/tests"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate_self_times  # noqa: E402


@pytest.mark.parametrize("n, p, rank", [(11, 9, 1), (34, 70, 24), (100, 90, 90), (1000, 99, 990)])
def test_tail_percentile_examples(n, p, rank):
    samples = [float(i) for i in range(n, 0, -1)]   # unsorted on purpose
    assert harness.tail_percentile(samples) == (p, float(rank))


def test_tail_percentile_keeps_ten_beyond_and_is_highest():
    for n in range(11, 1500):
        p, value = harness.tail_percentile(list(range(1, n + 1)))
        assert n - value >= 10
        # the next percentile up would leave fewer than 10 beyond
        assert n - max(1, -(-(p + 1) * n // 100)) < 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * 10)


def test_self_time_subtracts_nested_children():
    names = ["a", "b", "c"]
    # a [0, 10] > b [1, 4] > c [2, 3];  a > c [5, 6.5]
    span_name = [0, 1, 2, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.5]
    totals = aggregate_self_times(names, span_name, parent, start, end)
    assert totals == pytest.approx({"a": 10 - 3 - 1.5, "b": 3 - 1, "c": 1 + 1.5})


def _fake_package():
    """A package with a module 'inner' whose function is imported by 'outer'."""
    inner = types.ModuleType("pkg.inner")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    def gen(n):
        yield from range(n)

    leaf.__module__ = gen.__module__ = "pkg.inner"
    inner.leaf, inner.gen = leaf, gen
    outer = types.ModuleType("pkg.outer")

    def top(n):
        return sum(outer.leaf(i) for i in outer.gen(n))

    top.__module__ = "pkg.outer"
    outer.top, outer.leaf, outer.gen = top, leaf, gen
    return inner, outer


def test_tracer_wraps_imported_names_and_times_generators():
    inner, outer = _fake_package()
    tracer = Tracer()
    tracer.install([inner, outer], [inner, outer])
    try:
        assert outer.top(5) == 20
        with pytest.raises(ValueError):
            inner.leaf(-1)
    finally:
        tracer.uninstall()
    index = {name: i for i, name in enumerate(tracer.names)}
    assert tracer.calls[index["inner.leaf"]] == 6
    assert tracer.errors[index["inner.leaf"]] == 1
    assert tracer.calls[index["inner.gen"]] == 6      # five values and the final stop
    assert tracer.items[index["inner.gen"]] == 5
    assert tracer.calls[index["outer.top"]] == 1
    own = tracer.self_times()
    top = 0
    assert tracer.span_parent[top] == -1
    top_duration = tracer.span_end[top] - tracer.span_start[top]
    children = [i for i, p in enumerate(tracer.span_parent) if p == top]
    assert len(children) == 11
    assert own["outer.top"] == pytest.approx(
        top_duration - sum(tracer.span_end[i] - tracer.span_start[i] for i in children))
    assert outer.leaf is inner.leaf and outer.leaf.__name__ == "leaf"
    assert not hasattr(outer.leaf, "__wrapped__")   # uninstalled


def test_error_rate_counts_a_wrong_oracle_answer_and_a_raise():
    def op(x):
        if x == 3:
            raise RuntimeError("boom")
        return x * x if x != 5 else 0    # op 5 gives a wrong answer

    def check(x, out):
        if out != x * x:
            raise oracles.OracleError(f"{x}^2 != {out}")

    rounds = itertools.repeat(list(range(8)))
    result = harness.closed_loop(rounds, op, check, seconds=0.0, min_ops=16)
    assert (result.attempted, result.failed) == (16, 4)
    assert result.error_rate == 0.25
    assert len(result.latencies) == 12
    assert any("OracleError" in note for note in result.failures)


def test_generator_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.rounds(name, s) for s in (7, 7, 8))
        first = [next(a) for _ in range(2)]
        assert first == [next(b) for _ in range(2)]
        if name != "periodic_search":
            assert first != [next(c) for _ in range(2)]


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    baseline = json.loads((BENCH / "baseline.json").read_text())
    for name in workloads.WORKLOADS:
        assert set(baseline["workloads"][name]["baseline"]) == {*run.END_TO_END, "error_rate"}
