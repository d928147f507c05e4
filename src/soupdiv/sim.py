"""Scoop-by-scoop simulator, fairness reporting, and the feasibility classifier.

The simulator tracks the physical story directly: every scoop delivers one
volume unit of the dissolved stuff and the fraction (1-q) * q^(i-1) of the
surface stuff (initial surface amount normalized to 1, so q^k is left in the
bowl after k scoops). The surface-stuff imbalance is proportional to the
residual sum_{i<=k} s_i q^i with factor (1-q)/q; the simulator computes the
deliveries independently so that identity can be verified rather than
assumed.

A trace (:class:`SimulationTrace`) holds its rows by column: the signs,
and the surface stuff on each plate in two stdlib arrays of 8 bytes per
value, which :func:`simulate` ends where the plate totals settle. The other
fields of the CSV schema follow from these, the whole-scoop imbalance being
the running sign sum, so a :class:`TraceRow` is built only when one is
read; a 10^5-scoop trace keeps its signs and a few KiB of plate totals
instead of one object per scoop. The deliveries are not stored.

Verdicts of :func:`fairness_report` are observational statements about the
finite trace, never proofs about the limit, and its walk over the enveloped
scoops stops once no later scoop can fail. Likewise :func:`classify` is
threshold-driven: below 1/2 no fair division exists, above 1/sqrt(2) the
greedy pairing works, above the quartic threshold (about 0.5845751) a
covering certificate works. In the remaining window it asks one question:
which is the first balanced pattern, in order of degree, that changes sign
within ``core.ROOT_MATCH_WINDOW`` of q? A pruned depth-first search over
sign prefixes (:func:`periodic.first_bracketed_pattern`) answers it without
evaluating every pattern and leaves no reference cycle. Only that bracket
is bisected, on ``core._horner`` with ``core.eval_pm``'s signs but not its
checks; without one the answer is honestly Unknown.
"""

from __future__ import annotations

import enum
import operator
from array import array
from bisect import bisect_left
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from typing import IO, Callable, Iterator, NamedTuple, Optional

from .approx import Q_INF, Certificate, FairDivisionPlan, auto_certificate
from .core import (
    ROOT_MATCH_WINDOW, TOL, TRACE_TOL_PER_SCOOP, InputError, Signs, _horner, as_signs,
    bisect_root, geometric_tail, require_unit_open,
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


_new_row = partial(tuple.__new__, TraceRow)  # a row from its fields' tuple


def _row(k: int, s: int, d: int, plus2: float, minus2: float) -> TraceRow:
    # k scoops split as (k + d)/2 and (k - d)/2, and k, d share parity.
    return _new_row((k, s, (k + d) // 2, (k - d) // 2, plus2, minus2, d, plus2 - minus2))


class SimulationTrace:
    """A simulated run, stored by column, whose rows are :class:`TraceRow`,
    one per scoop. After scoop k (1-based) the whole-scoop imbalance is the
    sum of the first k signs, and the surface stuff on each plate is the
    value at k - 1 in its column, ``stuff2_plus`` or ``stuff2_minus``, or
    the column's last value once the column has ended: :func:`simulate`
    ends both where the plate totals settle, and a column holds at least
    one value when there are signs. Every other row field follows from
    these, so a row is built only when it is read.

    The reads are ``len``, iteration, which makes one pass over the
    columns, and ``trace[k]`` for an integer k (negative from the end),
    which sums k + 1 signs. Slices and ``reversed`` raise TypeError rather
    than build the rows one ``trace[k]`` at a time."""

    __slots__ = ("q", "signs", "stuff2_plus", "stuff2_minus")
    __reversed__ = None

    def __init__(self, q: float, signs: tuple[int, ...], stuff2_plus: array,
                 stuff2_minus: array) -> None:
        self.q = q
        self.signs = signs
        self.stuff2_plus = stuff2_plus  # typecode "d"
        self.stuff2_minus = stuff2_minus  # typecode "d"

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: int) -> TraceRow:
        k = range(len(self))[operator.index(i)]
        plus, minus = self.stuff2_plus, self.stuff2_minus
        return _row(k + 1, self.signs[k], sum(islice(self.signs, k + 1)),
                    plus[min(k, len(plus) - 1)], minus[min(k, len(minus) - 1)])

    def __iter__(self) -> Iterator[TraceRow]:
        signs, n = self.signs, len(self)
        return map(_row, count(1), signs, accumulate(signs), _padded(self.stuff2_plus, n),
                   _padded(self.stuff2_minus, n))

    @property
    def rows(self) -> "SimulationTrace":
        """The trace itself, which iterates over its rows."""
        return self

    @property
    def final(self) -> TraceRow:
        return self[-1]


def _padded(column: array, n: int) -> Iterator[float]:
    """A plate column's values for n scoops, its last value past its end."""
    return chain(column, repeat(column[-1], n - len(column))) if column else iter(column)


def simulate(q: float, signs: Signs) -> SimulationTrace:
    """Run every scoop of the division ``signs``, which must be nonempty.

    The surface delivery of scoop i is (1-q) * q^(i-1), with q^(i-1) built by
    repeated multiplication and added to its plate in scoop order; the
    stored columns depend on that order down to the last bit, up to the
    first scoop whose delivery d leaves both totals as they are
    (``plus2 + d == plus2`` and ``minus2 + d == minus2``). There the loop
    stops, and both columns end at the scoop before: later deliveries are
    no larger and rounding is monotone, so both plates keep their totals to
    the end, which the trace reads past its columns. Both plates are
    tested, since a plate at 0.0 absorbs any delivery that has not
    underflowed. The trace keeps the checked signs as its sign column, from
    which it derives the sign sums: the given object itself when it is a
    ``PMPattern`` or a tuple of int +1/-1.
    """
    require_unit_open(q)
    sign_tuple = as_signs(signs)
    if not sign_tuple:
        raise InputError("cannot simulate an empty sign sequence")
    stuff2_plus, stuff2_minus = array("d"), array("d")
    plus2 = minus2 = 0.0
    one_minus_q = 1.0 - q
    surface_power = 1.0  # q^(i-1)
    for s in sign_tuple:
        delivered2 = one_minus_q * surface_power
        if plus2 + delivered2 == plus2 and minus2 + delivered2 == minus2:
            break
        surface_power *= q
        if s > 0:
            plus2 += delivered2
        else:
            minus2 += delivered2
        stuff2_plus.append(plus2)
        stuff2_minus.append(minus2)
    return SimulationTrace(q, sign_tuple, stuff2_plus, stuff2_minus)


class Verdict(enum.Enum):
    BOUNDED_FAIR_OBSERVED = "BoundedFairObserved"
    DIVERGING = "Diverging"
    INCONCLUSIVE = "Inconclusive"


class FairnessReport(NamedTuple):
    max_abs_imbalance1: int
    final_imbalance2: float
    verdict: Verdict


# An envelope maps a scoop count k >= 1 to an |imbalance2| bound there, a
# number >= 0, or to None where it bounds nothing; fairness_report refuses
# any other answer, and asks for no bound past the scoop where its walk ends.
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
    ends k > 0 as (1-q)/q * A * q^k.

    The bound is computed only when asked for, and a scoop count is looked
    up in ``plan.block_ends`` by bisection, which needs those ends sorted,
    as :func:`approx.construct_bounded` builds them."""
    q = plan.certificate.q
    scale = (1.0 - q) / q
    A = plan.certificate.A
    ends = plan.block_ends

    def bound(k: int) -> Optional[float]:
        i = bisect_left(ends, k)
        if k > 0 and i < len(ends) and ends[i] == k:
            return scale * A * q**k
        return None

    return bound


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

    The envelope must answer None or a bound >= 0 at each scoop count it is
    asked for; any other answer, NaN included, raises InputError. It is
    called only when its answer can decide the verdict: never for a
    diverging trace, without a cap or over the cap. Then it is called at
    k = 1, 2, ... up to the first enveloped scoop whose bound fails, or up
    to the exit point below, or to the end of the trace, and never after;
    an envelope must not rely on being called there.

    The exit point is the first scoop k at which some enveloped scoop has
    passed, both plates hold their final totals (as in every trace of
    :func:`simulate`, whose plate totals never decrease), and
    |final imbalance2| <= k * ``core.TRACE_TOL_PER_SCOOP``. From there on
    |imbalance2| is |final imbalance2|, and any later bound b >= 0 at k' >= k
    passes, since rounding is monotone: b + k' * tol >= k' * tol >= k * tol.
    """
    n = len(trace)
    if not n:
        raise InputError("cannot report on an empty trace")
    # The sign sums are read in chunks of 4096, each as a set: a walk
    # revisits few levels, so max and min scan little, and a chunk holds at
    # most 4096 ints however far the walk goes.
    sums = accumulate(trace.signs)
    hi = lo = 0
    while chunk := set(islice(sums, 4096)):
        hi = max(hi, max(chunk))
        lo = min(lo, min(chunk))
    max_abs1 = max(hi, -lo)
    plus, minus = trace.stuff2_plus, trace.stuff2_minus
    final2 = plus[-1] - minus[-1]
    if 2 * abs(sum(trace.signs)) >= n:
        verdict = Verdict.DIVERGING
    elif envelope is None or imbalance1_cap is None or max_abs1 > imbalance1_cap:
        verdict = Verdict.INCONCLUSIVE
    else:
        # the columns never decrease, so each final value's first occurrence
        # starts its constant tail
        settled = 1 + max(plus.index(plus[-1]), minus.index(minus[-1]))
        abs_final2 = abs(final2)
        fits = None  # no enveloped scoop yet
        for k, plus2, minus2 in zip(count(1), _padded(plus, n), _padded(minus, n)):
            if fits and k >= settled and abs_final2 <= k * TRACE_TOL_PER_SCOOP:
                break
            bound = envelope(k)
            if bound is not None:
                if not bound >= 0.0:
                    raise InputError(
                        f"envelope bound at scoop {k} must be a non-negative number, "
                        f"got {bound!r}"
                    )
                fits = abs(plus2 - minus2) <= bound + k * TRACE_TOL_PER_SCOOP
                if not fits:
                    break
        verdict = Verdict.BOUNDED_FAIR_OBSERVED if fits else Verdict.INCONCLUSIVE
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
    certificate: Optional[Certificate] = None
    pattern: Optional[PMPattern] = None
    root: Optional[float] = None
    searched_degree: Optional[int] = None


def classify(q: float, search_degree: int = 12) -> FeasibilityClass:
    """Place q into the known feasibility regimes.

    q <= 1/2 is infeasible with witness gap q - sum_{i>=2} q^i >= 0; where
    :func:`greedy.in_greedy_regime` admits q (1/sqrt(2) and up, less
    ``core.TOL``) the greedy pairing applies; above the quartic threshold the
    covering certificate applies, and the certificate is attached as the
    witness. One always exists there: above q_inf the N = 64 gap inequality
    ratio <= A holds exactly, and for N >= 2 the gap inequality implies the
    base one, since ratio - (1-q)/q = (1-q)(2q-1)/(q(1+q^2)) > 0. In the
    open window the first balanced pattern of degree <= ``search_degree``
    (by degree, then lexicographically) that changes sign on
    q +- ``core.ROOT_MATCH_WINDOW`` is found by
    :func:`periodic.first_bracketed_pattern`, bisected on the signs of
    ``core.eval_pm`` and returned as a periodic match;
    otherwise the answer is Unknown, which must not be strengthened. There a
    search_degree above :data:`periodic.MAX_MEMBERSHIP_DEGREE` (64) is
    refused before any node is visited, and a search that visits more than
    :data:`periodic.MAX_MEMBERSHIP_NODES` prefix nodes is stopped; both
    raise InputError.
    """
    require_unit_open(q)
    if not isinstance(search_degree, int) or search_degree < 2 or search_degree % 2 != 0:
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
    root = bisect_root(partial(_horner, pattern[::-1]), lo, hi, TOL)
    return FeasibilityClass(kind=FeasibilityKind.PERIODIC_FAIR, pattern=pattern, root=root)


def _trace_lines(trace: SimulationTrace) -> Iterator[str]:
    plus, minus, signs = trace.stuff2_plus, trace.stuff2_minus, trace.signs
    settled = max(len(plus), len(minus))
    rows = zip(count(1), signs, accumulate(signs))
    # before the columns settle, a plate keeps its total while the other
    # plate takes scoops, so a total's text is reused until it changes; a
    # zero is formatted anew, since 0.0 and -0.0 compare equal but print as
    # 0 and -0
    last_plus = last_minus = None
    for (k, s, d), plus2, minus2 in zip(islice(rows, settled), _padded(plus, settled),
                                        _padded(minus, settled)):
        if plus2 != last_plus or not plus2:
            last_plus, plus_text = plus2, f"{plus2:.15g}"
        if minus2 != last_minus or not minus2:
            last_minus, minus_text = minus2, f"{minus2:.15g}"
        yield (f"{k},{s},{(k + d) // 2},{(k - d) // 2},{plus_text},{minus_text},{d},"
               f"{plus2 - minus2:.15g}\n")
    if settled < len(signs):
        plates = f"{plus[-1]:.15g},{minus[-1]:.15g}"
        imbalance2 = f"{plus[-1] - minus[-1]:.15g}"
        for k, s, d in rows:
            yield f"{k},{s},{(k + d) // 2},{(k - d) // 2},{plates},{d},{imbalance2}\n"


def write_trace_csv(trace: SimulationTrace, stream: IO[str]) -> None:
    """Write the trace in the documented CSV schema (one row per scoop),
    1024 lines per ``stream.write``. Reals have 15 significant digits. Each
    run of equal plate totals is formatted once, and the rows past the
    plate columns repeat the texts of their last values."""
    stream.write(",".join(("i", *TraceRow._fields[1:])) + "\n")
    lines = _trace_lines(trace)
    while chunk := "".join(islice(lines, 1024)):
        stream.write(chunk)
