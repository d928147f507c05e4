"""Workload generator: a seed in, the program's inputs out.

Each workload is an endless stream of rounds. A round has the same cost mix
for every seed: the seed picks values inside fixed strata (all 11 planted
roots plus 7 uniform q; a lattice of q and scoop slices; one op per
subcommand) and the order of the ops. The benchmark runs whole rounds, so
medians and tails of different seeds measure the same mix.

Usage: python3 soupbench/workloads.py --workload NAME --seed N [--rounds R]
prints the inputs of the first R rounds as JSON lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from oracles import INV_SQRT2, Q_INF, load_reference, planted_roots

WORKLOADS = ("open_window_classify", "periodic_search", "construct_verify", "cli_mix")

SEARCH_DEGREE = 10        # open_window_classify: classify(q, search_degree=10)
UNIFORM_PER_ROUND = 7     # with the 11 planted roots, about two thirds are hits
PERIODIC_MAX_DEGREE = 8   # periodic_search: min_period_search(8)
# construct_verify rounds are a Fibonacci lattice of 55 cells over
# (log10 scoops, q): scoop counts at the midpoints of 55 equal log10 slices
# of [10^3, 10^5], each paired with its own slice of the q range, where the
# seed draws q. Every round thus pairs the same scoop counts with the same
# construction branch. Each round also builds the largest size once per
# branch, so the same kind of op sets the peak RSS for every seed.
CONSTRUCT_PER_ROUND, CONSTRUCT_LATTICE_STEP = 55, 34
CONSTRUCT_MAX_SCOOPS = 100_000
CONSTRUCT_Q = (0.59, 0.99)
CONSTRUCT_LOG10_SCOOPS = (3.0, 5.0)
CLI_SCOOPS = (6000, 10000)
CLI_SIGNS = (2000, 5000)
CLI_SEARCH_DEGREE = 6


@dataclass(frozen=True)
class ClassifyInput:
    q: float
    planted: bool


@dataclass(frozen=True)
class SearchInput:
    max_degree: int


@dataclass(frozen=True)
class ConstructInput:
    q: float
    scoops: int


@dataclass(frozen=True)
class CliInput:
    argv: tuple[str, ...]
    expected_exit: int
    signs_file: Optional[str] = None   # content of the file named by --signs


def _even(x: float) -> int:
    return 2 * round(x / 2)


def open_window_classify(rng: random.Random) -> Iterator[list[ClassifyInput]]:
    roots = planted_roots(load_reference())
    while True:
        ops = [ClassifyInput(q, True) for q in roots]
        # uniform in (1/2, q_inf]
        ops += [ClassifyInput(Q_INF - (Q_INF - 0.5) * rng.random(), False)
                for _ in range(UNIFORM_PER_ROUND)]
        rng.shuffle(ops)
        yield ops


def periodic_search(rng: random.Random) -> Iterator[list[SearchInput]]:
    while True:
        yield [SearchInput(PERIODIC_MAX_DEGREE)]


def construct_verify(rng: random.Random) -> Iterator[list[ConstructInput]]:
    m, step = CONSTRUCT_PER_ROUND, CONSTRUCT_LATTICE_STEP
    (q_lo, q_hi), (x_lo, x_hi) = CONSTRUCT_Q, CONSTRUCT_LOG10_SCOOPS
    while True:
        ops = []
        for j in range(m):
            x = x_lo + (x_hi - x_lo) * (j + 0.5) / m
            q = q_lo + (q_hi - q_lo) * (j * step % m + rng.random()) / m
            ops.append(ConstructInput(q, min(CONSTRUCT_MAX_SCOOPS, max(1_000, _even(10**x)))))
        ops.append(ConstructInput(rng.uniform(q_lo, INV_SQRT2), CONSTRUCT_MAX_SCOOPS))
        ops.append(ConstructInput(rng.uniform(INV_SQRT2, q_hi), CONSTRUCT_MAX_SCOOPS))
        rng.shuffle(ops)
        yield ops


def cli_mix(rng: random.Random) -> Iterator[list[CliInput]]:
    def q(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.6f}"

    def fmt() -> list[str]:
        return ["--format", rng.choice(("json", "text"))]

    def scoops() -> str:
        return str(_even(rng.uniform(*CLI_SCOOPS)))

    while True:
        length = rng.randint(*CLI_SIGNS)
        signs = "".join(rng.choice("+-") + "\n" for _ in range(length))
        ops = [
            CliInput(("qinf", "--tol", f"1e-{rng.randint(6, 12)}", *fmt()), 0),
            CliInput(("classify", "--q", q(0.1, 0.5)), 1),    # infeasible
            CliInput(("classify", "--q", q(0.6, 0.7)), 0),    # certificate regime
            CliInput(("classify", "--q", q(0.71, 0.99)), 0),  # greedy regime
            CliInput(("certify", "--q", q(0.6, 0.99), *fmt()), 0),
            CliInput(("greedy", "--q", q(0.71, 0.99), "--scoops", scoops(), *fmt()), 0),
            CliInput(("construct", "--q", q(0.6, 0.99), "--scoops", scoops(), *fmt()), 0),
            CliInput(("simulate", "--q", q(0.5, 0.99), "--signs"), 0, signs),
            CliInput(("periodic-search", "--max-degree", str(CLI_SEARCH_DEGREE), *fmt()), 0),
        ]
        rng.shuffle(ops)
        yield ops


def rounds(workload: str, seed: int) -> Iterator[list]:
    """The endless round stream of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    stream = rounds(args.workload, args.seed)
    for index in range(args.rounds):
        for op in next(stream):
            print(json.dumps({"round": index, **dataclasses.asdict(op)}))


if __name__ == "__main__":
    main()
