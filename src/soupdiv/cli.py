"""Command-line front end: reproducible, machine-readable access to all modules.

Every subcommand is a function of the parsed arguments that returns
``(exit_code, output)``: ``output`` is text (or CSV) or a JSON payload.
:func:`run` is the one place that renders a payload and writes the output to
stdout (or ``--out``), so a command that raises writes nothing. Numeric
flags are checked by the library function that uses them, and the same argv
always yields byte-identical output. Exit codes: 0 for a positive result, 1
for a negative or unknown result (infeasible q, failed certification, empty
search), 2 for usage or domain errors and for a ``--signs`` or ``--out``
path that cannot be read or written.

Reals are printed with 15 significant digits in JSON and 6 in text mode;
``qinf`` text output is rounded to the decimals justified by its bisection
tolerance. JSON is written by :func:`_json`, which prints what
``json.dumps(indent=2, sort_keys=True)`` prints for the rounded payload.

A process pays only for what its subcommand runs: each ``_cmd_*`` function
imports the library modules it calls when it is called, and ``json`` is
imported only to render a JSON payload. Library modules import each other
at module level, since an import inside a hot function costs every call.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from functools import cache
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from .core import TOL, DomainError, InputError, PMPattern, prefix_diagnostics

if TYPE_CHECKING:
    from .approx import Certificate, CertificateFailure

# A subcommand's answer: its exit code, and text or a JSON payload.
Response = tuple[int, Any]


# The JSON spellings of the floats that have no JSON number.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj: Any, indent: str, quote: Callable[[str], str]) -> str:
    """``obj`` as the text ``json.dumps(obj, indent=2, sort_keys=True)``
    writes after each float is rounded to 15 significant digits and each
    result record (a named tuple) becomes the dict of its fields.
    ``indent`` is the newline and indentation before ``obj``'s closing
    bracket, and ``quote`` is ``json``'s ASCII string encoder. Dict keys
    must be strings; a value of any other type raises TypeError.

    A container is one join of its items' texts, so the largest transient
    is a list of its items' texts and the text they make."""
    if isinstance(obj, float):
        text = float.__repr__(float(f"{obj:.15g}"))
        return _NONFINITE.get(text, text)
    if isinstance(obj, str):
        return quote(obj)
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{quote(k)}: {_json(v, inner, quote)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, inner, quote) for v in obj]
        brackets = "[]"
    elif obj is None:
        return "null"
    elif obj is True:
        return "true"
    elif obj is False:
        return "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    items[0] = brackets[0] + inner + items[0]
    items[-1] += indent + brackets[1]
    return ("," + inner).join(items)


def _dump_json(payload: Any) -> str:
    from json.encoder import encode_basestring_ascii

    return _json(payload, "\n", encode_basestring_ascii) + "\n"


def _txt(x: float) -> str:
    return f"{x:.6g}"


def _certificate(args: argparse.Namespace) -> Union[Certificate, CertificateFailure]:
    """Verify the certificate at ``--N`` when given, else search for one."""
    from .approx import auto_certificate, verify_certificate

    if args.N is not None:
        return verify_certificate(args.q, args.N)
    return auto_certificate(args.q)


def _failure(failure: CertificateFailure, args: argparse.Namespace) -> Response:
    """A failed certification in the requested format; exit code 1."""
    if args.format == "json":
        return 1, {"failure": failure}
    return 1, (
        f"not certified: {failure.family} inequality fails at n={failure.index} "
        f"({_txt(failure.lhs)} vs {_txt(failure.rhs)}), "
        f"ratio={_txt(failure.ratio)}, limit={_txt(failure.p_limit)}\n"
    )


# The tokens of a sign file, one per line, and the sign character each stands for.
_FILE_SIGNS = {"+": "+", "+1": "+", "-": "-", "-1": "-", "−": "-"}


def _load_signs(value: str) -> str:
    """Sign text from an inline '+'/'-' string, or from a path to a file
    with one sign per line; ``simulate`` validates it.

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
        return stripped
    if is_file:
        chars = []
        try:
            with open(value, "r", encoding="utf-8-sig") as fh:
                for lineno, line in enumerate(fh, start=1):
                    token = line.strip()
                    if not token:
                        continue
                    if token not in _FILE_SIGNS:
                        raise InputError(
                            f"{value}:{lineno}: expected one sign per line, got {token!r}"
                        )
                    chars.append(_FILE_SIGNS[token])
        except UnicodeDecodeError as exc:
            raise InputError(f"{value}: not a UTF-8 text file ({exc.reason})") from None
        return "".join(chars)
    raise InputError(f"--signs {value!r} is neither a sign string nor an existing file")


def _cmd_qinf(args: argparse.Namespace) -> Response:
    from .approx import q_infinity, qinf_poly

    root = q_infinity(args.tol)
    if args.format == "json":
        return 0, {"q_inf": root, "tol": args.tol, "poly_residual": qinf_poly(root)}
    digits = min(15, max(1, math.ceil(-math.log10(args.tol))))
    return 0, f"{root:.{digits}f}\n"


def _cmd_classify(args: argparse.Namespace) -> Response:
    from .sim import FeasibilityKind, classify

    result = classify(args.q, search_degree=args.search_degree)
    code = 1 if result.kind in (FeasibilityKind.INFEASIBLE, FeasibilityKind.UNKNOWN) else 0
    payload: dict[str, Any] = {"class": result.kind.value, "q": args.q}
    for key, value in result._asdict().items():
        if key == "kind" or value is None:
            continue
        payload[key] = value.to_text() if isinstance(value, PMPattern) else value
    if args.format == "json":
        return code, payload
    extras = "".join(
        f", {k}={_txt(v) if isinstance(v, float) else v}"
        for k, v in payload.items()
        if k not in ("class", "q") and not isinstance(v, tuple)
    )
    return code, f"{result.kind.value} (q={_txt(args.q)}{extras})\n"


def _cmd_greedy(args: argparse.Namespace) -> Response:
    from .greedy import geometric_fair_division

    seq = geometric_fair_division(args.q, args.scoops)
    if args.format == "text":
        return 0, seq.to_text() + "\n"
    sign_sums, residuals = prefix_diagnostics(seq, args.q)
    return 0, {
        "q": args.q,
        "scoops": args.scoops,
        "signs": seq.to_text(),
        "max_abs_sign_sum": max(map(abs, sign_sums)),
        "final_residual": residuals[-1],
        "final_residual_bound": args.q ** (args.scoops + 1) / (1.0 + args.q),
    }


def _cmd_periodic_search(args: argparse.Namespace) -> Response:
    from .periodic import min_period_search

    results = min_period_search(args.max_degree)
    rows = []
    for degree in sorted(results):
        for hit in results[degree]:
            pattern, partner = hit.pattern.to_text(), hit.pattern.negated().to_text()
            rows.append({
                "degree": degree,
                "pattern": pattern,
                "roots": list(hit.roots),
                "negation_partner": partner,
                "canonical": pattern < partner,
            })
    code = 0 if rows else 1
    if args.format == "json":
        return code, rows
    lines = [
        f"N={row['degree']} {row['pattern']} roots=" + ",".join(_txt(r) for r in row["roots"])
        for row in rows
    ] or ["no fair periodic patterns found"]
    return code, "\n".join(lines) + "\n"


def _cmd_certify(args: argparse.Namespace) -> Response:
    from .approx import CertificateFailure

    cert = _certificate(args)
    if isinstance(cert, CertificateFailure):
        return _failure(cert, args)
    if args.format == "json":
        return 0, {"certificate": cert}
    return 0, f"certified q={_txt(cert.q)} with N={cert.N}, A={_txt(cert.A)}\n"


def _cmd_construct(args: argparse.Namespace) -> Response:
    from .approx import CertificateFailure, construct_bounded

    cert = _certificate(args)
    if isinstance(cert, CertificateFailure):
        return _failure(cert, args)
    plan = construct_bounded(args.q, args.scoops, cert=cert)
    if args.format == "text":
        return 0, plan.seq.to_text() + "\n"
    return 0, {
        "q": args.q,
        "scoops": len(plan.seq),
        "signs": plan.seq.to_text(),
        "certificate": cert,
        "blocks": [
            {"end": k, "residual": r, "bound": cert.A * args.q**k}
            for k, r in zip(plan.block_ends, plan.residuals_at_blocks)
        ],
    }


def _cmd_simulate(args: argparse.Namespace) -> Response:
    from .sim import simulate, write_trace_csv

    trace = simulate(args.q, _load_signs(args.signs))
    if args.format == "json":
        final = trace.final
        return 0, {
            "q": args.q,
            "steps": len(trace),
            "imbalance1": final.imbalance1,
            "imbalance2": final.imbalance2,
            "stuff2_remaining": args.q ** len(trace),
        }
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return 0, buf.getvalue()


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: a parser per call is cyclic garbage."""
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
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--search-degree", type=int, default=12)
    add_common(p, "json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("greedy", help="greedy paired division for q >= 1/sqrt(2)")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--scoops", type=int, required=True)
    add_common(p, "json")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("periodic-search", help="exhaustive balanced-pattern root search")
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p, "json")
    p.set_defaults(func=_cmd_periodic_search)

    p = sub.add_parser("certify", help="verify a covering certificate for q")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    add_common(p, "json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("construct", help="build a boundedly fair division from a certificate")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--scoops", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    add_common(p, "json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("simulate", help="scoop-by-scoop two-stuff trace")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--signs", required=True, help="inline +/- string or path to a sign file")
    add_common(p, "csv", formats=("csv", "json"))
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = args.func(args)
        text = output if isinstance(output, str) else _dump_json(output)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
    except (DomainError, InputError, OSError) as exc:
        print(f"soupdiv: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
