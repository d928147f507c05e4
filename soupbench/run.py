"""soupbench: end-to-end and per-layer benchmark of the soupdiv package.

Run from the root of a checkout:

    python3 soupbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs from ``workloads.py``, one client, closed loop):

* ``open_window_classify`` -- one op is ``classify(q, search_degree=10)`` on
  q in (1/2, q_inf]: the 11 planted roots of each round exit early, the 7
  uniform q end Unknown after a full search.
* ``periodic_search`` -- one op is ``min_period_search(8)``.
* ``construct_verify`` -- one op builds a division (``construct_bounded``
  below 1/sqrt(2), ``geometric_fair_division`` above) and runs
  ``prefix_diagnostics``, ``simulate`` and ``fairness_report`` on it.
* ``cli_mix`` -- one op is one ``python -m soupdiv.cli`` child process,
  timed from spawn until exit with stdout drained.

``--trace 0`` runs whole rounds for ``--seconds`` of wall time (and at least
30 ops) and reports the end-to-end metrics. ``--trace 1`` replays the first
ops of the same stream twice, untraced and then with spans around every
public soupdiv function, and reports the per-layer metrics and the tracing
overhead; a layer that the workload never calls reports 0. ``--workload all``
runs the four workloads in turn. Every output is checked by ``oracles.py``; a
failed check counts as a failed op. Human-readable lines come first; the last
stdout line is one JSON object. The full result, with the run environment and
the op latencies, is written to ``.soupbench-out/`` in the checkout, together
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

import harness
import oracles
import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".soupbench-out"

MIN_OPS = 30          # so that the tail percentile is at least p66
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MODULES = ("core", "periodic", "approx", "greedy", "sim", "cli")
EXACT_BREAKS_MAX_SCOOPS = 10_000

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Public functions of the traced modules at this commit; each reports the
# exceptions that left it as <name>.errors.
TRACED_FUNCTIONS = (
    "core.require_unit_open", "core.parse_signs", "core.signs_to_text", "core.as_signs",
    "core.eval_pm", "core.prefix_diagnostics", "core.geometric_tail",
    "periodic.classify_periodic", "periodic.enumerate_balanced",
    "periodic.pattern_roots", "periodic.min_period_search",
    "approx.pn_pattern", "approx.pn_value", "approx.qinf_poly", "approx.q_infinity",
    "approx.covering_ratio", "approx.verify_certificate", "approx.auto_certificate",
    "approx.approximate_step", "approx.construct_bounded", "approx.sqrt3_necessary",
    "greedy.check_condition1", "greedy.greedy_balance", "greedy.geometric_fair_division",
    "sim.simulate", "sim.greedy_envelope", "sim.plan_envelope", "sim.fairness_report",
    "sim.classify", "sim.write_trace_csv",
    "cli.build_parser", "cli.run", "cli.main",
)

SELF_TIMES = (
    "core.eval_pm", "periodic.enumerate_balanced", "periodic.pattern_roots",
    "sim.classify", "approx.auto_certificate", "approx.construct_bounded",
    "approx.approximate_step", "greedy.geometric_fair_division", "greedy.greedy_balance",
    "greedy.check_condition1", "core.prefix_diagnostics", "sim.simulate",
    "sim.fairness_report", "sim.write_trace_csv", "cli.run",
)
CALLS = ("core.eval_pm", "periodic.pattern_roots", "sim.classify",
         "approx.verify_certificate", "approx.approximate_step")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "periodic.enumerate_balanced.patterns": "count",
    "periodic.pattern_roots.roots": "count",
    "periodic.pattern_roots.useful_ratio": "ratio",
    "approx.certificate.useful_ratio": "ratio",
    "approx.exact_bound_breaks": "count",
    "sim.simulate.rows": "count",
    "sim.simulate.peak_alloc_mb": "MiB",
    "cli.stdout_bytes": "B",
    "cli.process_overhead_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{name}.errors": "count" for name in TRACED_FUNCTIONS},
}


def import_program():
    """Import soupdiv from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "soupdiv" / "__init__.py").is_file():
        raise SystemExit(f"soupbench: no soupdiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import soupdiv
    import soupdiv.cli

    if Path(soupdiv.__file__).resolve().parent != SRC / "soupdiv":
        raise SystemExit(f"soupbench: imported soupdiv from {soupdiv.__file__}, not {SRC}")
    return soupdiv


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until soupdiv and
    soupdiv.cli are imported; one unmeasured warm-up spawn first."""
    cmd = [sys.executable, "-c", "import soupdiv, soupdiv.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, stdin=subprocess.DEVNULL)
        if attempt:
            times.append(perf_counter() - t0)
    return times


# -- workloads ---------------------------------------------------------------


class Division(NamedTuple):
    seq: object
    plan: object            # None for the greedy division
    diagnostics: tuple
    trace: object
    report: object


class Workload:
    trace_ops = 1           # ops replayed by a traced run
    rss_of_children = False

    def __init__(self, soupdiv, scratch: Path):
        self.sd = soupdiv
        self.scratch = scratch

    def prepare(self, rounds):
        return rounds

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    # The traced run replays ``traced_op``; only cli_mix differs from ``op``.
    def traced_op(self, inp):
        return self.op(inp)

    def traced_check(self, inp, out) -> None:
        self.check(inp, out)

    def before_trace(self, inputs) -> dict:
        """Per-layer metrics measured outside the traced pass."""
        return {}


class OpenWindowClassify(Workload):
    trace_ops = 3

    def __init__(self, soupdiv, scratch):
        super().__init__(soupdiv, scratch)
        self.patterns = oracles.balanced_patterns(wl.SEARCH_DEGREE)

    def op(self, inp):
        return self.sd.classify(inp.q, search_degree=wl.SEARCH_DEGREE)

    def check(self, inp, out):
        if inp.planted and oracles.bracketed_pattern(self.patterns, inp.q) is None:
            raise RuntimeError(f"planted q={inp.q!r} is not a root: benchmark reference broken")
        oracles.check_classify(inp.q, wl.SEARCH_DEGREE, self.patterns, out)


class PeriodicSearch(Workload):
    trace_ops = 2

    def __init__(self, soupdiv, scratch):
        super().__init__(soupdiv, scratch)
        self.hits = {e["pattern"] for e in oracles.load_reference()["periodic_hits"]}

    def op(self, inp):
        return self.sd.min_period_search(inp.max_degree)

    def check(self, inp, out):
        oracles.check_periodic_search(self.hits, inp.max_degree, out)


class ConstructVerify(Workload):
    trace_ops = 16

    def op(self, inp):
        sd, q = self.sd, inp.q
        if q < oracles.INV_SQRT2:
            plan = sd.construct_bounded(q, inp.scoops)
            seq, envelope, cap = plan.seq, sd.plan_envelope(plan), 2 * plan.certificate.N
        else:
            plan = None
            seq = sd.geometric_fair_division(q, inp.scoops)
            envelope, cap = sd.greedy_envelope(q), 1
        diagnostics = sd.prefix_diagnostics(seq, q)
        trace = sd.simulate(q, seq)
        report = sd.fairness_report(trace, envelope, cap)
        return Division(seq, plan, diagnostics, trace, report)

    def check(self, inp, out):
        oracles.check_division(inp.q, inp.scoops, out)


class CliMix(Workload):
    trace_ops = 9
    rss_of_children = True

    def __init__(self, soupdiv, scratch):
        super().__init__(soupdiv, scratch)
        self.count = 0
        self.children: dict = {}

    def prepare(self, rounds):
        """Write each round's sign files (outside the timed ops) and name
        them in the argv."""
        for ops in rounds:
            ready = []
            for inp in ops:
                if inp.signs_file is not None:
                    path = self.scratch / f"signs-{self.count}.txt"
                    self.count += 1
                    path.write_text(inp.signs_file, encoding="utf-8")
                    inp = wl.CliInput(inp.argv + (str(path),), inp.expected_exit)
                ready.append(inp)
            yield ready

    def op(self, inp):
        proc = subprocess.run([sys.executable, "-m", "soupdiv.cli", *inp.argv],
                              env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout

    def traced_op(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sd.cli.run(list(inp.argv))
        return code, buf.getvalue().encode("utf-8")

    def check(self, inp, out):
        self._compare(inp, out, self.traced_op(inp))

    def traced_check(self, inp, out):
        self._compare(inp, self.children[inp], out)

    @staticmethod
    def _compare(inp, child, inprocess):
        if child[0] != inp.expected_exit:
            raise oracles.OracleError(f"{' '.join(inp.argv)}: exit {child[0]}, expected {inp.expected_exit}")
        if child != inprocess:
            raise oracles.OracleError(f"{' '.join(inp.argv)}: child and in-process output differ")

    def before_trace(self, inputs):
        """Run every input as a child, which gives the reference bytes, and
        in-process untraced; the difference of their wall times is the
        process overhead."""
        gaps = []
        for inp in inputs:
            t0 = perf_counter()
            self.children[inp] = self.op(inp)
            child_s = perf_counter() - t0
            t0 = perf_counter()
            self.traced_op(inp)
            gaps.append(child_s - (perf_counter() - t0))
        return {"cli.process_overhead_ms": 1e3 * statistics.median(gaps),
                "cli.stdout_bytes": sum(len(out[1]) for out in self.children.values())}


WORKLOAD_CLASSES = {
    "open_window_classify": OpenWindowClassify,
    "periodic_search": PeriodicSearch,
    "construct_verify": ConstructVerify,
    "cli_mix": CliMix,
}


# -- runs --------------------------------------------------------------------


def end_to_end(workload: Workload, name: str, seed: int, seconds: float):
    setup = measure_setup()
    loop = harness.closed_loop(workload.prepare(wl.rounds(name, seed)), workload.op,
                               workload.check, seconds, MIN_OPS)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    stats = harness.summarize(loop) if len(loop.latencies) > harness.TAIL_BEYOND else {}
    metrics = {
        "ops_per_s": stats.get("ops_per_s", 0.0),
        "op_p50_ms": stats.get("op_p50_ms", 0.0),
        "op_tail_ms": stats.get("op_tail_ms", 0.0),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "ops_per_s": f"{len(loop.latencies)} correct ops / {loop.timed_s:.3f} s timed",
        "op_p50_ms": f"n={len(loop.latencies)}",
        "op_tail_ms": f"p{stats.get('tail_percentile')}, n={len(loop.latencies)}, "
                      f"{harness.TAIL_BEYOND} beyond",
        "peak_rss_mb": "max over child processes" if workload.rss_of_children else "benchmark process",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "error_rate": f"{loop.failed}/{loop.attempted} ops",
    }
    extra = {"error_rate": loop.error_rate, "tail_percentile": stats.get("tail_percentile"),
             "samples": len(loop.latencies), "setup_samples_s": setup,
             "latencies_s": loop.latencies}
    return loop, metrics, END_TO_END, notes, extra


class LayerProbe:
    """Counts taken from traced results, per op."""

    def __init__(self):
        self.q: Optional[float] = None
        self.roots = self.with_root = self.matching = 0
        self.certificates = 0
        self.rows = 0
        self.largest_sim: Optional[tuple] = None
        self.plans: list[tuple] = []

    def observers(self) -> dict:
        return {
            "periodic.pattern_roots": self.on_roots,
            "approx.verify_certificate": self.on_certificate,
            "sim.simulate": self.on_simulate,
            "approx.construct_bounded": self.on_plan,
        }

    def on_roots(self, report):
        self.roots += len(report.roots)
        self.with_root += bool(report.roots)
        if self.q is not None:
            self.matching += sum(abs(r - self.q) <= oracles.ROOT_MATCH_TOL for r in report.roots)

    def on_certificate(self, result):
        self.certificates += type(result).__name__ == "Certificate"

    def on_simulate(self, trace):
        self.rows += len(trace)
        if self.largest_sim is None or len(trace) > len(self.largest_sim[1]):
            self.largest_sim = (trace.q, tuple(row.sign for row in trace.rows))

    def on_plan(self, plan):
        if len(plan.seq) <= EXACT_BREAKS_MAX_SCOOPS:
            cert = plan.certificate
            self.plans.append((cert.q, tuple(plan.seq.signs), plan.block_ends, cert.A))


def traced(workload: Workload, name: str, seed: int):
    stream = workload.prepare(wl.rounds(name, seed))
    inputs = []
    while len(inputs) < workload.trace_ops:
        inputs.extend(next(stream))
    inputs = inputs[: workload.trace_ops]
    loop = harness.LoopResult()
    extra_metrics = workload.before_trace(inputs)

    untraced_s = 0.0
    for inp in inputs:
        untraced_s += harness.run_op(loop, workload.traced_op, workload.traced_check, inp) or 0.0

    sd = workload.sd
    modules = [getattr(sd, m) for m in MODULES]
    tracer, probe = Tracer(), LayerProbe()
    tracer.install(modules, [sd, *modules], probe.observers())
    traced_s = 0.0
    try:
        for index, inp in enumerate(inputs):
            tracer.op_id = index
            probe.q = inp.q if isinstance(workload, OpenWindowClassify) else None
            traced_s += harness.run_op(loop, workload.traced_op, workload.traced_check, inp) or 0.0
    finally:
        tracer.uninstall()

    sim_peak = 0.0
    if probe.largest_sim is not None:
        q, signs = probe.largest_sim
        tracemalloc.start()
        sd.simulate(q, signs)
        sim_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    breaks = sum(oracles.exact_bound_breaks(*plan) for plan in probe.plans)

    tracer.dump(OUT / f"spans-{name}.bin")

    index = {n: i for i, n in enumerate(tracer.names)}
    self_s = tracer.self_times()

    def calls(fn):
        return tracer.calls[index[fn]] if fn in index else 0

    def ratio(num, den):
        return num / den if den else 0.0

    if isinstance(workload, OpenWindowClassify):
        roots_ratio = ratio(probe.matching, probe.roots)
        roots_base = f"{probe.matching} roots within 1e-9 of q / {probe.roots} roots computed"
    else:
        roots_ratio = ratio(probe.with_root, calls("periodic.pattern_roots"))
        roots_base = (f"{probe.with_root} patterns with a root / "
                      f"{calls('periodic.pattern_roots')} patterns searched")
    metrics = {f"{fn}.calls": calls(fn) for fn in CALLS}
    metrics.update({f"{fn}.self_s": self_s.get(fn, 0.0) for fn in SELF_TIMES})
    metrics.update({
        "periodic.enumerate_balanced.patterns":
            tracer.items[index["periodic.enumerate_balanced"]],
        "periodic.pattern_roots.roots": probe.roots,
        "periodic.pattern_roots.useful_ratio": roots_ratio,
        "approx.certificate.useful_ratio":
            ratio(probe.certificates, calls("approx.verify_certificate")),
        "approx.exact_bound_breaks": breaks,
        "sim.simulate.rows": probe.rows,
        "sim.simulate.peak_alloc_mb": sim_peak,
        "cli.stdout_bytes": 0,
        "cli.process_overhead_ms": 0.0,
        "trace.spans": len(tracer.span_start),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    })
    metrics.update(extra_metrics)
    metrics.update({f"{fn}.errors": tracer.errors[index[fn]] if fn in index else 0
                    for fn in TRACED_FUNCTIONS})
    notes = {
        "periodic.pattern_roots.useful_ratio": roots_base,
        "approx.certificate.useful_ratio":
            f"{probe.certificates} certificates / {calls('approx.verify_certificate')} verify calls",
        "approx.exact_bound_breaks":
            f"over {len(probe.plans)} constructions of <= {EXACT_BREAKS_MAX_SCOOPS} scoops",
        "sim.simulate.peak_alloc_mb": "tracemalloc peak of the largest simulate call, replayed",
        "trace.overhead_s": f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
                            f"over {len(inputs)} ops",
    }
    extra = {"error_rate": loop.error_rate, "traced_ops": len(inputs)}
    return loop, metrics, PER_LAYER, notes, extra


def run_all(args) -> int:
    """Run every workload in its own process and relay its report."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soupdiv benchmark")
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    soupdiv = import_program()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](soupdiv, OUT)
    if args.trace:
        loop, metrics, units, notes, extra = traced(workload, args.workload, args.seed)
    else:
        loop, metrics, units, notes, extra = end_to_end(workload, args.workload, args.seed,
                                                        args.seconds)
    env = harness.environment(ROOT)

    print(f"soupbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in metrics.items():
        note = notes.get(key)
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {key:44s} {shown} {units[key]:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':44s} {loop.error_rate:>14.6g} {'ratio':6s}  "
          f"({loop.failed}/{loop.attempted} ops)")
    for failure in loop.failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes, **extra,
              "failures": loop.failures, **result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
