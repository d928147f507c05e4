"""Reference arithmetic and output checks that never call the code under test.

Every check here recomputes what it needs with its own Horner evaluation,
bisection, pattern enumeration and prefix sums, and reads only the data that
the program returned. A check raises :class:`OracleError` on a wrong answer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Optional, Sequence

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Documented tolerances of the program's outputs (README / docstrings).
ROOT_MATCH_TOL = 1e-9        # classify: a hit lies within 1e-9 of q
ROOT_RESIDUAL_TOL = 1e-9     # a reported root must zero its pattern to 1e-9
BOUND_HEADROOM = 1e-11       # absolute headroom on every residual bound
ROUNDING_TOL = 1e-12         # float bookkeeping that must agree to rounding
INV_SQRT2 = math.sqrt(0.5)


class OracleError(AssertionError):
    """The program's output failed an independent check."""


def horner(signs: Sequence[int], x: float) -> float:
    """sum_{i=1}^{n} signs[i-1] * x^i."""
    acc = 0.0
    for s in reversed(signs):
        acc = acc * x + s
    return acc * x


def bisect(f, lo: float, hi: float) -> float:
    """Root of f in a sign bracket [lo, hi], to float resolution."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if (f_lo < 0.0) == (f(hi) < 0.0):
        raise ValueError(f"[{lo!r}, {hi!r}] is not a sign bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid


def quartic(x: float) -> float:
    return x**4 + x**3 + 2.0 * x * x - 1.0


Q_INF = bisect(quartic, 0.5, 0.6)


def to_text(signs: Iterable[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def from_text(text: str) -> tuple[int, ...]:
    return tuple(1 if ch == "+" else -1 for ch in text)


def balanced_patterns(max_degree: int) -> list[tuple[int, ...]]:
    """Every balanced +-1 pattern of even degree 2..max_degree."""
    out = []
    for n in range(2, max_degree + 1, 2):
        for plus in combinations(range(n), n // 2):
            signs = [-1] * n
            for pos in plus:
                signs[pos] = 1
            out.append(tuple(signs))
    return out


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def planted_roots(reference: dict) -> list[float]:
    """The distinct open-window roots, re-bisected from the stored brackets."""
    roots = []
    for entry in reference["open_window_roots"]:
        signs = from_text(entry["pattern"])
        lo, hi = entry["bracket"]
        roots.append(bisect(lambda x: horner(signs, x), lo, hi))
    return roots


def bracketed_pattern(
    patterns: Sequence[tuple[int, ...]], q: float, eps: float = ROOT_MATCH_TOL
) -> Optional[tuple[int, ...]]:
    """First pattern whose value changes sign on [q - eps, q + eps]."""
    for signs in patterns:
        a, b = horner(signs, q - eps), horner(signs, q + eps)
        if a == 0.0 or b == 0.0 or (a < 0.0) != (b < 0.0):
            return signs
    return None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check_classify(q: float, search_degree: int, patterns, result) -> None:
    """Open-window classify: PeriodicFair exactly when some pattern of degree
    <= search_degree changes sign within 1e-9 of q, otherwise Unknown."""
    expected = bracketed_pattern(patterns, q)
    kind = result.kind.value
    if expected is None:
        _require(kind == "Unknown", f"q={q!r}: expected Unknown, got {kind}")
        _require(result.searched_degree == search_degree,
                 f"q={q!r}: searched_degree {result.searched_degree}")
        return
    _require(kind == "PeriodicFair", f"q={q!r}: expected PeriodicFair, got {kind}")
    signs = tuple(result.pattern.signs)
    _require(len(signs) <= search_degree and sum(signs) == 0,
             f"q={q!r}: pattern {to_text(signs)} is not balanced of degree <= {search_degree}")
    _require(abs(result.root - q) <= ROOT_MATCH_TOL,
             f"q={q!r}: root {result.root!r} is not within 1e-9")
    _require(abs(horner(signs, result.root)) <= ROOT_RESIDUAL_TOL,
             f"q={q!r}: {to_text(signs)} does not vanish at {result.root!r}")


def check_periodic_search(reference_hits: set[str], max_degree: int, result) -> None:
    """Every reported root zeroes its pattern and the hit set is the stored one."""
    seen = set()
    for degree, hits in result.items():
        _require(1 <= degree <= max_degree, f"degree {degree} outside 1..{max_degree}")
        for hit in hits:
            signs = tuple(hit.pattern.signs)
            _require(len(signs) == degree and sum(signs) == 0,
                     f"{to_text(signs)} is not balanced of degree {degree}")
            _require(len(hit.roots) > 0, f"{to_text(signs)} reported without roots")
            for root in hit.roots:
                _require(0.0 < root < 1.0 and abs(horner(signs, root)) <= ROOT_RESIDUAL_TOL,
                         f"{to_text(signs)} does not vanish at {root!r}")
            seen.add(to_text(signs))
    missing, extra = reference_hits - seen, seen - reference_hits
    _require(not missing and not extra,
             f"hit set differs: missing {sorted(missing)[:4]}, extra {sorted(extra)[:4]}")


def pn_signs(n: int) -> tuple[int, ...]:
    """'+', then alternating '+-' pairs, then '-': degree 2n."""
    return (1,) + tuple(1 if i % 2 == 0 else -1 for i in range(2, 2 * n)) + (-1,)


def certificate_A(q: float, N: int) -> float:
    return horner(pn_signs(N), q) / (1.0 - q ** (2 * N))


def check_division(q: float, scoops: int, out) -> None:
    """Check a greedy or block-constructed division, its prefix diagnostics,
    its simulation and its fairness report, all against recomputed values.
    The verdict of the report is not trusted and not checked."""
    signs = tuple(out.seq.signs)
    sums, residuals = out.diagnostics
    rows = out.trace.rows
    n = len(signs)
    _require(len(sums) == n and len(residuals) == n and len(rows) == n,
             "diagnostics or trace length differs from the division")
    if out.plan is None:
        _require(n == scoops, f"greedy division has {n} scoops, asked for {scoops}")
        sign_cap = 1
        ends = range(2, n + 1, 2)
    else:
        plan = out.plan
        N = plan.certificate.N
        A = certificate_A(q, N)
        _require(abs(A - plan.certificate.A) <= ROUNDING_TOL * max(1.0, A),
                 f"certificate A={plan.certificate.A!r} but recomputed {A!r}")
        ends = plan.block_ends
        _require(ends[0] == 0 and ends[-1] == n >= scoops
                 and all(a < b <= a + 2 * N for a, b in zip(ends, ends[1:])),
                 "block ends are not increasing blocks of degree <= 2N ending at the last scoop")
        sign_cap = 2 * N

    # Streamed, so that checking a 10^5-scoop division allocates nothing large.
    next_end = iter(k for k in ends if k > 0)
    checkpoint = next(next_end, None)
    total = 0
    residual = 0.0
    power = 1.0
    scale = (1.0 - q) / q
    max_abs = 0
    for k, (s, row) in enumerate(zip(signs, rows), start=1):
        _require(s in (1, -1), f"sign {s!r} at scoop {k}")
        power *= q
        total += s
        residual += s * power
        max_abs = max(max_abs, abs(total))
        _require(sums[k - 1] == total, f"sign sum differs at scoop {k}")
        _require(abs(residuals[k - 1] - residual) <= ROUNDING_TOL,
                 f"residual differs at scoop {k}")
        _require(abs(total) <= sign_cap, f"|sign sum| {abs(total)} > {sign_cap} at scoop {k}")
        if k == checkpoint:
            checkpoint = next(next_end, None)
            if out.plan is None:
                bound = power * q / (1.0 + q)       # q^(k+1) / (1+q)
            else:
                _require(total == 0, f"sign sum {total} at block end {k}")
                bound = A * power                   # A q^k
            _require(abs(residual) <= bound + BOUND_HEADROOM,
                     f"|r_{k}| = {abs(residual)!r} exceeds bound {bound!r} + 1e-11")
        _require(row.index == k and row.sign == s
                 and row.stuff1_plus + row.stuff1_minus == k
                 and row.imbalance1 == total
                 and abs(row.stuff2_plus + row.stuff2_minus - (1.0 - power)) <= ROUNDING_TOL
                 and abs(row.imbalance2 - scale * residual) <= ROUNDING_TOL,
                 f"simulator breaks conservation at scoop {k}")
    report = out.report
    _require(report.max_abs_imbalance1 == max_abs, "report max |imbalance1| differs")
    _require(report.final_imbalance2 == rows[-1].imbalance2, "report final imbalance2 differs")


def exact_bound_breaks(q: float, signs: Sequence[int], block_ends: Sequence[int], A: float) -> int:
    """Block ends k > 0 where |r_k| > A * q^k holds in exact arithmetic on the
    exact binary values of q and A (r_k = sum_{i<=k} s_i q^i).

    With q = a / d, N_k = r_k * d^k and P_k = a^k are integers, so the test
    is |N_k| * A_den > A_num * P_k.
    """
    a, d = Fraction(q).as_integer_ratio()
    a_num, a_den = Fraction(A).as_integer_ratio()
    ends = set(k for k in block_ends if k > 0)
    N = 0
    P = 1
    breaks = 0
    for k, s in enumerate(signs, start=1):
        P *= a
        N = N * d + s * P
        if k in ends and abs(N) * a_den > a_num * P:
            breaks += 1
    return breaks
