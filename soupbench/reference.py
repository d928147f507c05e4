"""Regenerate ``reference.json`` from the benchmark's own arithmetic.

Usage: python3 soupbench/reference.py > soupbench/reference.json

* ``open_window_roots``: one entry per distinct root in (1/2, q_inf] of a
  balanced pattern of degree <= 10, with the first pattern (in lexicographic
  '+' < '-' order by degree) that has it and a sign bracket around it.
* ``periodic_hits``: every balanced pattern of degree <= 8 with a sign
  change in (0, 1), found on a grid five times finer than the program's.

Both come from a dense sign scan plus bisection; neither calls soupdiv.
"""

from __future__ import annotations

import json

from oracles import Q_INF, balanced_patterns, bisect, horner, to_text

OPEN_WINDOW_DEGREE = 10
PERIODIC_DEGREE = 8
GRID = 20480


def sign_brackets(signs, lo, hi, grid=GRID):
    xs = [lo + (hi - lo) * j / grid for j in range(grid + 1)]
    vs = [horner(signs, x) for x in xs]
    for j in range(grid):
        if vs[j] != 0.0 and vs[j + 1] != 0.0 and (vs[j] < 0.0) != (vs[j + 1] < 0.0):
            yield xs[j], xs[j + 1]


def main() -> None:
    roots: dict[float, dict] = {}
    for signs in balanced_patterns(OPEN_WINDOW_DEGREE):
        for lo, hi in sign_brackets(signs, 0.5, Q_INF):
            root = bisect(lambda x: horner(signs, x), lo, hi)
            if all(abs(root - r) > 1e-9 for r in roots):
                roots[root] = {"pattern": to_text(signs), "bracket": [lo, hi]}
    hits = []
    for signs in balanced_patterns(PERIODIC_DEGREE):
        found = [bisect(lambda x: horner(signs, x), lo, hi)
                 for lo, hi in sign_brackets(signs, 1e-6, 1.0 - 1e-6)]
        if found:
            hits.append({"degree": len(signs), "pattern": to_text(signs), "roots": found})
    payload = {
        "open_window_roots": [roots[r] for r in sorted(roots)],
        "periodic_hits": hits,
    }
    print(json.dumps(payload, indent=1))


if __name__ == "__main__":
    main()
