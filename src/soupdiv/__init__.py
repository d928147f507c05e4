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

``import soupdiv`` loads none of them. A public name is looked up in
``_DEFINED_IN`` on first use (PEP 562): its module is imported then and the
value is kept in the package namespace, so later reads are plain attribute
reads, and a ``soupdiv`` process loads only the modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each module; ``_DEFINED_IN`` maps a name to its module.
_EXPORTS = {
    "approx": (
        "Certificate", "CertificateChecks", "CertificateError", "CertificateFailure",
        "FairDivisionPlan", "InequalityCheck", "auto_certificate", "construct_bounded",
        "covering_ratio", "pn_pattern", "pn_value", "q_infinity", "qinf_poly",
        "sqrt3_necessary", "verify_certificate",
    ),
    "core": (
        "DomainError", "InputError", "PMPattern", "as_signs", "eval_pm", "geometric_tail",
        "parse_signs", "prefix_diagnostics", "signs_to_text",
    ),
    "greedy": ("INV_SQRT2", "geometric_fair_division"),
    "periodic": ("RootReport", "enumerate_balanced", "min_period_search", "pattern_roots"),
    "sim": (
        "FairnessReport", "FeasibilityClass", "FeasibilityKind", "SimulationTrace", "TraceRow",
        "Verdict", "classify", "fairness_report", "greedy_envelope", "plan_envelope",
        "simulate", "write_trace_csv",
    ),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset((*_EXPORTS, "cli", "poly"))

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it in the package namespace
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
