"""Closed-loop driver, latency statistics and the run-environment record."""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional

TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it
MAX_FAILURE_NOTES = 5


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile p with at least 10 samples beyond it, and its
    nearest-rank value. Needs at least 11 samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)   # seconds, correct ops only
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0                                   # sum over all attempted ops
    failures: list[str] = field(default_factory=list)

    def fail(self, index: int, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(result: LoopResult, op: Callable, check: Callable, inp) -> Optional[float]:
    """Time one op, then check its output outside the timed interval.
    Returns its latency, or None when it raised or failed its check."""
    index = result.attempted
    result.attempted += 1
    t0 = perf_counter()
    try:
        out = op(inp)
    except Exception as exc:
        result.timed_s += perf_counter() - t0
        result.fail(index, exc)
        return None
    latency = perf_counter() - t0
    result.timed_s += latency
    try:
        check(inp, out)
    except Exception as exc:
        result.fail(index, exc)
        return None
    result.latencies.append(latency)
    return latency


def closed_loop(rounds: Iterable[list], op: Callable, check: Callable,
                seconds: float, min_ops: int) -> LoopResult:
    """One client, next op only after the previous one is done and checked.
    Runs whole rounds until ``seconds`` of wall time have passed (checks
    included) and at least ``min_ops`` ops were attempted."""
    result = LoopResult()
    start = perf_counter()
    for ops in rounds:
        for inp in ops:
            run_op(result, op, check, inp)
        if result.attempted >= min_ops and perf_counter() - start >= seconds:
            return result
    return result


def summarize(result: LoopResult) -> dict:
    """End-to-end latency metrics of a loop, with their sample counts."""
    n = len(result.latencies)
    p, tail = tail_percentile(result.latencies)
    return {
        "ops_per_s": n / result.timed_s,
        "op_p50_ms": 1e3 * statistics.median(result.latencies),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": p,
    }


def environment(root: Path) -> dict:
    """nproc, Python version, CPU model and git commit of the checkout."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> Optional[str]:
    """HEAD of ``root`` read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
