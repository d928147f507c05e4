"""Scoop-by-scoop simulator, fairness reporting, and the feasibility classifier.

The simulator tracks the physical story directly: every scoop delivers one
volume unit of the dissolved stuff and the fraction (1-q) * q^(i-1) of the
surface stuff (initial surface amount normalized to 1, so q^k is left in the
bowl after k scoops). The surface-stuff imbalance is proportional to the
residual sum_{i<=k} s_i q^i with factor (1-q)/q; the simulator computes the
deliveries independently so that identity can be verified rather than
assumed.

A trace (:class:`SimulationTrace`) is the read-only sequence of its rows,
stored by column: the signs, and after every scoop the whole-scoop
imbalance and the surface stuff on each plate, in stdlib arrays of 8 bytes
per scoop each. The other fields of the CSV schema follow from these, so a
:class:`TraceRow` is built only when one is read; a 10^5-scoop trace takes
about 3 MiB instead of one object per scoop. The deliveries themselves (one
dissolved unit, and (1-q) * q^(i-1)) are not stored.

Verdicts of :func:`fairness_report` are observational statements about the
finite trace, never proofs about the limit. Likewise :func:`classify` is
threshold-driven: below 1/2 no fair division exists, above 1/sqrt(2) the
greedy pairing works, above the quartic threshold (about 0.5845751) a
covering certificate works. In the remaining window it asks one question:
which is the first balanced pattern, in order of degree, that changes sign
within ``core.ROOT_MATCH_WINDOW`` of q? A pruned depth-first search over
sign prefixes (:func:`periodic.first_bracketed_pattern`) answers it without
evaluating every pattern. Only that bracket is bisected; without one the
answer is honestly Unknown.
"""

from __future__ import annotations

import csv
import enum
from array import array
from itertools import count
from typing import IO, Callable, Iterator, NamedTuple, Optional, Sequence, Union

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
from .greedy import INV_SQRT2, in_greedy_regime
from .periodic import PMPattern, first_bracketed_pattern


class TraceRow(NamedTuple):
    """One scoop of a trace, in the CSV schema's column order."""

    index: int
    sign: int
    stuff1_plus: int
    stuff1_minus: int
    stuff2_plus: float
    stuff2_minus: float
    imbalance1: int
    imbalance2: float


def _row(k: int, s: int, d: int, plus2: float, minus2: float) -> TraceRow:
    # k scoops split as (k + d)/2 and (k - d)/2, and k, d share parity.
    return TraceRow(k, s, (k + d) // 2, (k - d) // 2, plus2, minus2, d, plus2 - minus2)


class SimulationTrace(Sequence[TraceRow]):
    """A simulated run: a read-only sequence of :class:`TraceRow`, one per
    scoop, stored by column. After scoop k (1-based) the whole-scoop
    imbalance is ``imbalance1[k-1]`` and the surface stuff on the plates is
    ``stuff2_plus[k-1]`` and ``stuff2_minus[k-1]``; every other row field
    follows from these, so a row is built only when it is read."""

    __slots__ = ("q", "signs", "imbalance1", "stuff2_plus", "stuff2_minus")

    def __init__(self, q: float, signs: tuple[int, ...], imbalance1: array,
                 stuff2_plus: array, stuff2_minus: array) -> None:
        self.q = q
        self.signs = signs
        self.imbalance1 = imbalance1  # typecode "q"
        self.stuff2_plus = stuff2_plus  # typecode "d"
        self.stuff2_minus = stuff2_minus  # typecode "d"

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: Union[int, slice]) -> Union[TraceRow, list[TraceRow]]:
        k = range(len(self))[i]
        if isinstance(k, range):
            return [self[j] for j in k]
        return _row(k + 1, self.signs[k], self.imbalance1[k], self.stuff2_plus[k],
                    self.stuff2_minus[k])

    def __iter__(self) -> Iterator[TraceRow]:
        return map(_row, count(1), self.signs, self.imbalance1, self.stuff2_plus,
                   self.stuff2_minus)

    @property
    def rows(self) -> "SimulationTrace":
        """The trace itself, which is its own row sequence."""
        return self

    @property
    def final(self) -> TraceRow:
        return self[-1]


def simulate(q: float, signs: Signs) -> SimulationTrace:
    """Run every scoop of the division ``signs``, which must be nonempty.

    The surface delivery of scoop i is (1-q) * q^(i-1), with q^(i-1) built by
    repeated multiplication and added to its plate in scoop order; the
    stored columns depend on that order down to the last bit. The trace
    keeps the checked signs themselves as its sign column.
    """
    require_unit_open(q)
    sign_tuple = as_signs(signs)
    if not sign_tuple:
        raise InputError("cannot simulate an empty sign sequence")
    imbalance1, stuff2_plus, stuff2_minus = array("q"), array("d"), array("d")
    d = 0
    plus2 = minus2 = 0.0
    surface_power = 1.0  # q^(i-1)
    for s in sign_tuple:
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
    return SimulationTrace(q, sign_tuple, imbalance1, stuff2_plus, stuff2_minus)


class Verdict(enum.Enum):
    BOUNDED_FAIR_OBSERVED = "BoundedFairObserved"
    DIVERGING = "Diverging"
    INCONCLUSIVE = "Inconclusive"


class FairnessReport(NamedTuple):
    max_abs_imbalance1: int
    final_imbalance2: float
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
    n = len(trace)
    if not n:
        raise InputError("cannot report on an empty trace")
    max_abs1 = max(max(trace.imbalance1), -min(trace.imbalance1))
    final2 = trace.stuff2_plus[-1] - trace.stuff2_minus[-1]
    checked = 0
    enveloped_ok = True
    if envelope is not None:
        for k, plus2, minus2 in zip(count(1), trace.stuff2_plus, trace.stuff2_minus):
            bound = envelope(k)
            if bound is not None:
                checked += 1
                budget = k * TRACE_TOL_PER_SCOOP
                enveloped_ok = enveloped_ok and abs(plus2 - minus2) <= bound + budget
    if 2 * abs(trace.imbalance1[-1]) >= n:
        verdict = Verdict.DIVERGING
    elif (
        checked
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
        verdict=verdict,
    )


class FeasibilityKind(enum.Enum):
    INFEASIBLE = "Infeasible"
    BOUNDED_FAIR_GREEDY = "BoundedFairGreedy"
    BOUNDED_FAIR_CERTIFICATE = "BoundedFairCertificate"
    PERIODIC_FAIR = "PeriodicFair"
    UNKNOWN = "Unknown"


class FeasibilityClass(NamedTuple):
    kind: FeasibilityKind
    witness_gap: Optional[float] = None
    threshold: Optional[float] = None
    certificate: Optional[Union[Certificate, CertificateFailure]] = None
    pattern: Optional[PMPattern] = None
    root: Optional[float] = None
    searched_degree: Optional[int] = None


def classify(q: float, search_degree: int = 12) -> FeasibilityClass:
    """Place q into the known feasibility regimes.

    q <= 1/2 is infeasible with witness gap q - sum_{i>=2} q^i >= 0; where
    :func:`greedy.in_greedy_regime` admits q (1/sqrt(2) and up, less
    ``core.TOL``) the greedy pairing applies; above the quartic threshold the
    covering certificate applies (the auto-certificate outcome is attached
    as the witness). In the open window the first balanced pattern of degree
    <= ``search_degree`` (by degree, then lexicographically) that changes
    sign on q +- ``core.ROOT_MATCH_WINDOW`` is found by
    :func:`periodic.first_bracketed_pattern`, bisected and returned as a
    periodic match; otherwise the answer is Unknown, which must not be
    strengthened. There a search_degree above
    :data:`periodic.MAX_MEMBERSHIP_DEGREE` (64) is refused before any node
    is visited, and a search that visits more than
    :data:`periodic.MAX_MEMBERSHIP_NODES` prefix nodes is stopped; both
    raise InputError.
    """
    require_unit_open(q)
    if search_degree < 2 or search_degree % 2 != 0:
        raise InputError(f"search_degree must be a positive even integer, got {search_degree!r}")
    if q <= 0.5:
        return FeasibilityClass(
            kind=FeasibilityKind.INFEASIBLE,
            witness_gap=q - geometric_tail(q, 1),
        )
    if in_greedy_regime(q):
        return FeasibilityClass(
            kind=FeasibilityKind.BOUNDED_FAIR_GREEDY, threshold=INV_SQRT2
        )
    if q > Q_INF:
        return FeasibilityClass(
            kind=FeasibilityKind.BOUNDED_FAIR_CERTIFICATE,
            certificate=auto_certificate(q),
        )
    lo, hi = q - ROOT_MATCH_WINDOW, q + ROOT_MATCH_WINDOW
    pattern = first_bracketed_pattern(lo, hi, search_degree)
    if pattern is None:
        return FeasibilityClass(kind=FeasibilityKind.UNKNOWN, searched_degree=search_degree)
    root = bisect_root(lambda x: eval_pm(pattern, x), lo, hi, TOL)
    return FeasibilityClass(kind=FeasibilityKind.PERIODIC_FAIR, pattern=pattern, root=root)


def write_trace_csv(trace: SimulationTrace, stream: IO[str]) -> None:
    """Write the trace in the documented CSV schema (one row per scoop)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("i", *TraceRow._fields[1:]))
    writer.writerows(
        (k, s, (k + d) // 2, (k - d) // 2, f"{plus2:.15g}", f"{minus2:.15g}", d,
         f"{plus2 - minus2:.15g}")
        for k, s, d, plus2, minus2 in zip(
            count(1), trace.signs, trace.imbalance1, trace.stuff2_plus, trace.stuff2_minus
        )
    )
