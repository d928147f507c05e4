"""Fair two-plate scoop divisions of a soup with a geometrically decaying stuff.

Given a decay quotient q in (0, 1), a division assigns each scoop to plate
'+' or '-'. This package constructs divisions that share both the dissolved
stuff (bounded sign imbalance) and the surface stuff (vanishing signed
geometric residual) evenly, and numerically checks every bound involved:

* :mod:`soupdiv.core` -- sign parsing, the balanced pattern type that also
  carries constructed divisions, evaluation;
* :mod:`soupdiv.greedy` -- paired greedy construction for q >= 1/sqrt(2);
* :mod:`soupdiv.poly` -- exact signs and roots of integer polynomials;
* :mod:`soupdiv.periodic` -- balanced-pattern enumeration and root search;
* :mod:`soupdiv.approx` -- covering certificates and block constructions
  for q above the quartic threshold (about 0.5845751);
* :mod:`soupdiv.sim` -- physical simulator (column-stored traces), fairness
  reports, classifier;
* :mod:`soupdiv.cli` -- the ``soupdiv`` command.
"""

from .approx import (
    Certificate,
    CertificateChecks,
    CertificateError,
    CertificateFailure,
    FairDivisionPlan,
    InequalityCheck,
    auto_certificate,
    construct_bounded,
    covering_ratio,
    pn_pattern,
    pn_value,
    q_infinity,
    qinf_poly,
    sqrt3_necessary,
    verify_certificate,
)
from .core import (
    DomainError,
    InputError,
    PMPattern,
    as_signs,
    eval_pm,
    geometric_tail,
    parse_signs,
    prefix_diagnostics,
    signs_to_text,
)
from .greedy import INV_SQRT2, geometric_fair_division
from .periodic import (
    RootReport,
    enumerate_balanced,
    min_period_search,
    pattern_roots,
)
from .sim import (
    FairnessReport,
    FeasibilityClass,
    FeasibilityKind,
    SimulationTrace,
    TraceRow,
    Verdict,
    classify,
    fairness_report,
    greedy_envelope,
    plan_envelope,
    simulate,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateChecks",
    "CertificateError",
    "CertificateFailure",
    "DomainError",
    "FairDivisionPlan",
    "FairnessReport",
    "FeasibilityClass",
    "FeasibilityKind",
    "INV_SQRT2",
    "InequalityCheck",
    "InputError",
    "PMPattern",
    "RootReport",
    "SimulationTrace",
    "TraceRow",
    "Verdict",
    "as_signs",
    "auto_certificate",
    "classify",
    "construct_bounded",
    "covering_ratio",
    "enumerate_balanced",
    "eval_pm",
    "fairness_report",
    "geometric_fair_division",
    "geometric_tail",
    "greedy_envelope",
    "min_period_search",
    "parse_signs",
    "pattern_roots",
    "plan_envelope",
    "pn_pattern",
    "pn_value",
    "prefix_diagnostics",
    "q_infinity",
    "qinf_poly",
    "signs_to_text",
    "simulate",
    "sqrt3_necessary",
    "verify_certificate",
    "write_trace_csv",
]
