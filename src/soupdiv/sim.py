"""Scoop-by-scoop simulator, fairness reporting, and the feasibility classifier.

The simulator tracks the physical story directly: every scoop delivers one
volume unit of the dissolved stuff and the fraction (1-q) * q^(i-1) of the
surface stuff (initial surface amount normalized to 1, so q^k is left in the
bowl after k scoops). The surface-stuff imbalance is proportional to the
residual sum_{i<=k} s_i q^i with factor (1-q)/q; the simulator computes the
deliveries independently so that identity can be verified rather than
assumed.

Verdicts of :func:`fairness_report` are observational statements about the
finite trace, never proofs about the limit. Likewise :func:`classify` is
threshold-driven: below 1/2 no fair division exists, above 1/sqrt(2) the
greedy pairing works, above the quartic threshold (about 0.5845751) a
covering certificate works. In the remaining window it asks one question
per balanced pattern, in order of degree: does the pattern change sign
within ``core.ROOT_MATCH_WINDOW`` of q? Only the first such bracket is
bisected; without one the answer is honestly Unknown.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Callable, IO, Optional, Union

from .approx import (
    Q_INF,
    Certificate,
    CertificateFailure,
    FairDivisionPlan,
    auto_certificate,
)
from .core import (
    ROOT_MATCH_WINDOW, TOL, TRACE_TOL_PER_SCOOP, InputError, Signs, as_signs, bisect_root,
    eval_pm, geometric_tail, require_unit_open,
)
from .greedy import INV_SQRT2
from .periodic import PMPattern, enumerate_balanced, require_search_budget


@dataclass(frozen=True)
class TraceRow:
    index: int
    sign: int
    stuff1_delivered: int
    stuff2_delivered: float
    stuff1_plus: int
    stuff1_minus: int
    stuff2_plus: float
    stuff2_minus: float
    imbalance1: int
    imbalance2: float


@dataclass(frozen=True)
class SimulationTrace:
    q: float
    rows: tuple[TraceRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def simulate(q: float, signs: Signs, steps: Optional[int] = None) -> SimulationTrace:
    """Run the division for ``steps`` scoops (default: all supplied signs)."""
    require_unit_open(q)
    sign_tuple = as_signs(signs)
    if steps is None:
        steps = len(sign_tuple)
    if steps < 1:
        raise InputError(f"steps must be a positive integer, got {steps!r}")
    if steps > len(sign_tuple):
        raise InputError(
            f"steps={steps} exceeds the supplied sign sequence length {len(sign_tuple)}"
        )
    rows: list[TraceRow] = []
    plus1 = minus1 = 0
    plus2 = minus2 = 0.0
    surface_power = 1.0  # q^(i-1)
    for i in range(1, steps + 1):
        s = sign_tuple[i - 1]
        delivered2 = (1.0 - q) * surface_power
        surface_power *= q
        if s > 0:
            plus1 += 1
            plus2 += delivered2
        else:
            minus1 += 1
            minus2 += delivered2
        rows.append(
            TraceRow(
                index=i,
                sign=s,
                stuff1_delivered=1,
                stuff2_delivered=delivered2,
                stuff1_plus=plus1,
                stuff1_minus=minus1,
                stuff2_plus=plus2,
                stuff2_minus=minus2,
                imbalance1=plus1 - minus1,
                imbalance2=plus2 - minus2,
            )
        )
    return SimulationTrace(q=q, rows=tuple(rows))


class Verdict(enum.Enum):
    BOUNDED_FAIR_OBSERVED = "BoundedFairObserved"
    DIVERGING = "Diverging"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FairnessReport:
    max_abs_imbalance1: int
    final_imbalance2: float
    imbalance2_envelope: tuple[tuple[int, float], ...]
    verdict: Verdict


EnvelopeFn = Callable[[int], Optional[float]]


def greedy_envelope(q: float) -> EnvelopeFn:
    """Theoretical |imbalance2| bound for the greedy pairing: defined at even
    scoop counts k as (1-q)/q times the residual tail q^(k+1)/(1+q)."""
    require_unit_open(q)
    scale = (1.0 - q) / q

    def bound(k: int) -> Optional[float]:
        if k < 2 or k % 2 != 0:
            return None
        return scale * q ** (k + 1) / (1.0 + q)

    return bound


def plan_envelope(plan: FairDivisionPlan) -> EnvelopeFn:
    """Theoretical |imbalance2| bound for a constructed plan: defined at block
    ends k as (1-q)/q * A * q^k."""
    q = plan.certificate.q
    scale = (1.0 - q) / q
    bounds = {
        k: scale * plan.certificate.A * q**k for k in plan.block_ends if k > 0
    }
    return bounds.get


def fairness_report(
    trace: SimulationTrace,
    envelope: Optional[EnvelopeFn] = None,
    imbalance1_cap: Optional[int] = None,
) -> FairnessReport:
    """Aggregate trace extrema and compare against the supplied bounds.

    BoundedFairObserved needs both an envelope and a cap, satisfied at every
    enveloped scoop and over all scoops respectively. Envelope
    comparisons carry the trace's floating-point budget (k times
    ``core.TRACE_TOL_PER_SCOOP`` after k scoops): theoretical bounds decay
    below the double-precision noise floor long before the trace ends. A
    final sign-sum imbalance covering at least half the trace is the
    divergence signature (the all-'+' division reaches it immediately);
    everything else is Inconclusive.
    """
    if not trace.rows:
        raise InputError("cannot report on an empty trace")
    max_abs1 = max(abs(row.imbalance1) for row in trace.rows)
    final2 = trace.final.imbalance2
    pairs: list[tuple[int, float]] = []
    enveloped_ok = True
    if envelope is not None:
        for row in trace.rows:
            bound = envelope(row.index)
            if bound is not None:
                pairs.append((row.index, bound))
                budget = row.index * TRACE_TOL_PER_SCOOP
                enveloped_ok = enveloped_ok and abs(row.imbalance2) <= bound + budget
    if 2 * abs(trace.final.imbalance1) >= len(trace.rows):
        verdict = Verdict.DIVERGING
    elif (
        pairs
        and enveloped_ok
        and imbalance1_cap is not None
        and max_abs1 <= imbalance1_cap
    ):
        verdict = Verdict.BOUNDED_FAIR_OBSERVED
    else:
        verdict = Verdict.INCONCLUSIVE
    return FairnessReport(
        max_abs_imbalance1=max_abs1,
        final_imbalance2=final2,
        imbalance2_envelope=tuple(pairs),
        verdict=verdict,
    )


class FeasibilityKind(enum.Enum):
    INFEASIBLE = "Infeasible"
    BOUNDED_FAIR_GREEDY = "BoundedFairGreedy"
    BOUNDED_FAIR_CERTIFICATE = "BoundedFairCertificate"
    PERIODIC_FAIR = "PeriodicFair"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class FeasibilityClass:
    kind: FeasibilityKind
    witness_gap: Optional[float] = None
    threshold: Optional[float] = None
    certificate: Optional[Union[Certificate, CertificateFailure]] = None
    pattern: Optional[PMPattern] = None
    root: Optional[float] = None
    searched_degree: Optional[int] = None


def classify(q: float, search_degree: int = 12) -> FeasibilityClass:
    """Place q into the known feasibility regimes.

    q <= 1/2 is infeasible with witness gap q - sum_{i>=2} q^i >= 0; above
    1/sqrt(2) the greedy pairing applies; above the quartic threshold the
    covering certificate applies (the auto-certificate outcome is attached
    as the witness). In the open window every balanced pattern of degree
    <= ``search_degree`` is tested for a sign change on
    q +- ``core.ROOT_MATCH_WINDOW``; the first hit is bisected and returned
    as a periodic match, otherwise the answer is Unknown, which must not be
    strengthened. A search over more patterns than the budget allows is
    refused before it starts (:func:`periodic.require_search_budget`).
    """
    require_unit_open(q)
    if search_degree < 2 or search_degree % 2 != 0:
        raise InputError(f"search_degree must be a positive even integer, got {search_degree!r}")
    if q <= 0.5:
        return FeasibilityClass(
            kind=FeasibilityKind.INFEASIBLE,
            witness_gap=q - geometric_tail(q, 1),
        )
    if q >= INV_SQRT2:
        return FeasibilityClass(
            kind=FeasibilityKind.BOUNDED_FAIR_GREEDY, threshold=INV_SQRT2
        )
    if q > Q_INF:
        return FeasibilityClass(
            kind=FeasibilityKind.BOUNDED_FAIR_CERTIFICATE,
            certificate=auto_certificate(q),
        )
    require_search_budget(search_degree)
    lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
    for degree in range(2, search_degree + 1, 2):
        for pattern in enumerate_balanced(degree):
            f_lo, f_hi = eval_pm(pattern, lo), eval_pm(pattern, hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
                root = bisect_root(lambda x: eval_pm(pattern, x), lo, hi, TOL)
                return FeasibilityClass(
                    kind=FeasibilityKind.PERIODIC_FAIR, pattern=pattern, root=root
                )
    return FeasibilityClass(kind=FeasibilityKind.UNKNOWN, searched_degree=search_degree)


def write_trace_csv(trace: SimulationTrace, stream: IO[str]) -> None:
    """Write the trace in the documented CSV schema (one row per scoop)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [
            "i",
            "sign",
            "stuff1_plus",
            "stuff1_minus",
            "stuff2_plus",
            "stuff2_minus",
            "imbalance1",
            "imbalance2",
        ]
    )
    for row in trace.rows:
        writer.writerow(
            [
                row.index,
                row.sign,
                row.stuff1_plus,
                row.stuff1_minus,
                f"{row.stuff2_plus:.15g}",
                f"{row.stuff2_minus:.15g}",
                row.imbalance1,
                f"{row.imbalance2:.15g}",
            ]
        )
