"""Command-line front end: reproducible, machine-readable access to all modules.

Every subcommand validates its numeric flags before dispatch, writes to
stdout (or ``--out``), and is deterministic: identical argv yields
byte-identical output. Exit codes: 0 for a positive result, 1 for a
negative or unknown result (infeasible q, failed certification, empty
search), 2 for usage or domain errors.

Reals are printed with 15 significant digits in JSON and 6 in text mode;
``qinf`` text output is rounded to the decimals justified by its bisection
tolerance.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Any, Optional, Sequence

from .approx import (
    Certificate,
    CertificateError,
    CertificateFailure,
    FairDivisionPlan,
    auto_certificate,
    construct_bounded,
    q_infinity,
    qinf_poly,
    verify_certificate,
)
from .core import (
    TOL,
    DomainError,
    InputError,
    parse_signs,
    prefix_diagnostics,
    require_unit_open,
)
from .greedy import geometric_fair_division
from .periodic import min_period_search
from .sim import FeasibilityKind, classify, simulate, write_trace_csv


def _round_floats(obj: Any) -> Any:
    """Round every float in a payload to 15 significant digits; a result
    record (a named tuple) becomes the dict of its fields."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(payload: Any) -> str:
    return json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _txt(x: float) -> str:
    return f"{x:.6g}"


def _emit_failure(failure: CertificateFailure, args: argparse.Namespace) -> int:
    """Report a failed certification in the requested format; exit code 1."""
    if args.format == "json":
        _emit(_dump_json({"failure": failure}), args.out)
    else:
        _emit(
            f"not certified: {failure.family} inequality fails at n={failure.index} "
            f"({_txt(failure.lhs)} vs {_txt(failure.rhs)}), "
            f"ratio={_txt(failure.ratio)}, limit={_txt(failure.p_limit)}\n",
            args.out,
        )
    return 1


def _plan_payload(plan: FairDivisionPlan) -> dict[str, Any]:
    q = plan.certificate.q
    a = plan.certificate.A
    blocks = [
        {"end": k, "residual": r, "bound": a * q**k}
        for k, r in zip(plan.block_ends, plan.residuals_at_blocks)
    ]
    return {
        "q": q,
        "scoops": len(plan.seq),
        "signs": plan.seq.to_text(),
        "certificate": plan.certificate,
        "blocks": blocks,
    }


def _load_signs(value: str) -> tuple[int, ...]:
    """Inline '+'/'-' string, or a path to a file with one sign per line.

    A value that reads both ways (a file named like a sign string) is
    refused rather than silently taken as inline signs.
    """
    stripped = value.strip()
    is_file = os.path.exists(value)
    if stripped and all(ch in "+-−" for ch in stripped):
        if is_file:
            raise InputError(
                f"--signs {value!r} reads both as the inline signs {stripped!r} "
                f"and as the existing file {value!r}; name the file with a "
                f"directory prefix such as {os.path.join(os.curdir, value)!r}"
            )
        return parse_signs(stripped)
    if is_file:
        signs = []
        with open(value, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                token = line.strip()
                if not token:
                    continue
                if token in ("+", "+1"):
                    signs.append(1)
                elif token in ("-", "−", "-1"):
                    signs.append(-1)
                else:
                    raise InputError(
                        f"{value}:{lineno}: expected one sign per line, got {token!r}"
                    )
        return tuple(signs)
    raise InputError(f"--signs {value!r} is neither a sign string nor an existing file")


def _cmd_qinf(args: argparse.Namespace) -> int:
    root = q_infinity(args.tol)
    if args.format == "json":
        payload = {"q_inf": root, "tol": args.tol, "poly_residual": qinf_poly(root)}
        _emit(_dump_json(payload), args.out)
    else:
        digits = min(15, max(1, math.ceil(-math.log10(args.tol))))
        _emit(f"{root:.{digits}f}\n", args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    result = classify(args.q, search_degree=args.search_degree)
    payload: dict[str, Any] = {"class": result.kind.value, "q": args.q}
    if result.witness_gap is not None:
        payload["witness_gap"] = result.witness_gap
    if result.threshold is not None:
        payload["threshold"] = result.threshold
    if isinstance(result.certificate, Certificate):
        payload["certificate"] = result.certificate
    elif isinstance(result.certificate, CertificateFailure):
        payload["certificate_failure"] = result.certificate
    if result.pattern is not None:
        payload["pattern"] = result.pattern.to_text()
    if result.root is not None:
        payload["root"] = result.root
    if result.searched_degree is not None:
        payload["searched_degree"] = result.searched_degree
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        extras = ", ".join(
            f"{k}={_txt(v) if isinstance(v, float) else v}"
            for k, v in payload.items()
            if k not in ("class", "q") and not isinstance(v, tuple)
        )
        line = f"{result.kind.value} (q={_txt(args.q)}" + (f", {extras}" if extras else "") + ")\n"
        _emit(line, args.out)
    return 1 if result.kind in (FeasibilityKind.INFEASIBLE, FeasibilityKind.UNKNOWN) else 0


def _cmd_greedy(args: argparse.Namespace) -> int:
    seq = geometric_fair_division(args.q, args.scoops)
    sign_sums, residuals = prefix_diagnostics(seq, args.q)
    payload = {
        "q": args.q,
        "scoops": args.scoops,
        "signs": seq.to_text(),
        "max_abs_sign_sum": max(abs(s) for s in sign_sums),
        "final_residual": residuals[-1],
        "final_residual_bound": args.q ** (args.scoops + 1) / (1.0 + args.q),
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        _emit(seq.to_text() + "\n", args.out)
    return 0


def _cmd_periodic_search(args: argparse.Namespace) -> int:
    results = min_period_search(args.max_degree)
    rows = []
    for degree in sorted(results):
        for hit in results[degree]:
            rows.append(
                {
                    "degree": degree,
                    "pattern": hit.pattern.to_text(),
                    "roots": list(hit.roots),
                    "negation_partner": hit.negation_partner,
                    "canonical": hit.canonical,
                }
            )
    if args.format == "json":
        _emit(_dump_json(rows), args.out)
    else:
        lines = [
            f"N={row['degree']} {row['pattern']} roots=" +
            ",".join(_txt(r) for r in row["roots"])
            for row in rows
        ] or ["no fair periodic patterns found"]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if rows else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.N is not None:
        result = verify_certificate(args.q, args.N)
    else:
        result = auto_certificate(args.q, n_max=args.n_max)
    if isinstance(result, CertificateFailure):
        return _emit_failure(result, args)
    if args.format == "json":
        _emit(_dump_json({"certificate": result}), args.out)
    else:
        _emit(
            f"certified q={_txt(result.q)} with N={result.N}, A={_txt(result.A)}\n",
            args.out,
        )
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    cert = None
    if args.N is not None:
        result = verify_certificate(args.q, args.N)
        if isinstance(result, CertificateFailure):
            return _emit_failure(result, args)
        cert = result
    try:
        plan = construct_bounded(args.q, args.scoops, cert=cert)
    except CertificateError as exc:
        return _emit_failure(exc.failure, args)
    if args.format == "json":
        _emit(_dump_json(_plan_payload(plan)), args.out)
    else:
        _emit(plan.seq.to_text() + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    seq = _load_signs(args.signs)
    trace = simulate(args.q, seq, steps=args.steps)
    if args.format == "json":
        final = trace.final
        payload = {
            "q": args.q,
            "steps": len(trace),
            "imbalance1": final.imbalance1,
            "imbalance2": final.imbalance2,
            "stuff2_remaining": args.q ** len(trace),
        }
        _emit(_dump_json(payload), args.out)
        return 0
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def _unit_open(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soupdiv",
        description="Constructions and numerical checks for fair two-plate scoop divisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        default_format: str,
        formats: tuple[str, ...] = ("json", "text"),
    ) -> None:
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("qinf", help="bisect the certificate-threshold quartic")
    p.add_argument("--tol", type=float, default=TOL)
    add_common(p, "text")
    p.set_defaults(func=_cmd_qinf)

    p = sub.add_parser("classify", help="place q into the known feasibility regimes")
    p.add_argument("--q", type=_unit_open, required=True)
    p.add_argument("--search-degree", type=int, default=12)
    add_common(p, "json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("greedy", help="greedy paired division for q >= 1/sqrt(2)")
    p.add_argument("--q", type=_unit_open, required=True)
    p.add_argument("--scoops", type=int, required=True)
    add_common(p, "json")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("periodic-search", help="exhaustive balanced-pattern root search")
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p, "json")
    p.set_defaults(func=_cmd_periodic_search)

    p = sub.add_parser("certify", help="verify a covering certificate for q")
    p.add_argument("--q", type=_unit_open, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n-max", type=int, default=64)
    add_common(p, "json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("construct", help="build a boundedly fair division from a certificate")
    p.add_argument("--q", type=_unit_open, required=True)
    p.add_argument("--scoops", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    add_common(p, "json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("simulate", help="scoop-by-scoop two-stuff trace")
    p.add_argument("--q", type=_unit_open, required=True)
    p.add_argument("--signs", required=True, help="inline +/- string or path to a sign file")
    p.add_argument("--steps", type=int, default=None)
    add_common(p, "csv", formats=("csv", "json"))
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "q", None) is not None:
        try:
            require_unit_open(args.q)
        except DomainError as exc:
            print(f"soupdiv: error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (DomainError, InputError) as exc:
        print(f"soupdiv: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
