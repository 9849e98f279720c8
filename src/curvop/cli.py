"""Command-line interface.

One binary, six subcommands:

* ``spectrum``   eigenvalues of both curvature operators of a tensor
* ``check``      k-nonnegativity of the second-kind spectrum
* ``bounds``     the five spectral lower-bound checks plus certificate
* ``fuzz``       randomized campaign over seeded tensors
* ``threshold``  dimension-dependent k thresholds
* ``models``     catalog of built-in model tensors

Exit codes: 0 success / property holds, 1 a checked mathematical
property fails (negative k-sum, violated bound), 2 malformed input or
out-of-domain parameters.  With ``--no-timestamp`` any subcommand run
twice on identical inputs emits byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from . import __version__
from .core import CurvatureTensor, CurvopError, tensor_from_json, traceless_ricci
from .models import catalog, model_from_json
from .operators import (
    LAMBDA2,
    S2_TRACELESS,
    first_kind_matrix,
    operator_to_json,
    second_kind_matrix,
    spectrum,
    spectrum_csv_row,
)
from .verify import TOL_INEQ, all_checks, einstein_certificate, fuzz_campaign, threshold_profile
from .weighted import k_verdict

__all__ = ["main", "entrypoint"]


class CliError(Exception):
    """Bad input or unusable parameters; mapped to exit code 2."""


def _parse_json(text: str, where: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as bad:
        raise CliError(
            f"malformed JSON in {where}: {bad.msg} at line {bad.lineno} "
            f"column {bad.colno}"
        ) from None
    if not isinstance(obj, dict):
        raise CliError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_tensor(args) -> CurvatureTensor:
    """Tensor from --input FILE (tensor or model doc) or --model JSON."""
    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except OSError as bad:
            raise CliError(f"cannot read {args.input}: {bad}") from None
        obj = _parse_json(text, where=args.input)
    else:
        obj = _parse_json(args.model, where="--model")
    T = model_from_json(obj).build() if "model" in obj else tensor_from_json(obj)
    return T.require_valid()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _envelope(command: str, args, payload: dict) -> dict:
    doc = {"command": command}
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc.update(payload)
    return doc


# --- subcommand implementations ---------------------------------------------


def _cmd_spectrum(args) -> tuple[int, str, str]:
    T = _load_tensor(args)
    first = first_kind_matrix(T)
    second = second_kind_matrix(T)
    spec1 = spectrum(first)
    spec2 = spectrum(second)

    if args.format == "csv":
        lines = [
            spectrum_csv_row(T.n, LAMBDA2, spec1),
            spectrum_csv_row(T.n, S2_TRACELESS, spec2),
        ]
        return 0, "\n".join(lines), "csv"

    if args.format == "json":
        payload = {
            "n": T.n,
            "fingerprint": T.fingerprint,
            "first_kind": {
                "domain": LAMBDA2,
                "dim": len(spec1),
                "eigenvalues": [float(v) for v in spec1.values],
                "multiplicities": [[v, c] for v, c in spec1.multiplicities()],
            },
            "second_kind": {
                "domain": S2_TRACELESS,
                "dim": len(spec2),
                "eigenvalues": [float(v) for v in spec2.values],
                "multiplicities": [[v, c] for v, c in spec2.multiplicities()],
            },
        }
        if args.matrices:
            payload["matrices"] = {
                "first_kind": operator_to_json(first),
                "second_kind": operator_to_json(second),
            }
        return 0, json.dumps(_envelope("spectrum", args, payload), indent=2), "json"

    lines = [f"n = {T.n}  fingerprint = {T.fingerprint}"]
    for label, spec in (("first kind ", spec1), ("second kind", spec2)):
        lines.append(f"{label} dim {len(spec)}")
        for value, count in spec.multiplicities():
            lines.append(f"  {_fmt(value)}  (multiplicity {count})")
    return 0, "\n".join(lines), "txt"


def _cmd_check(args) -> tuple[int, str, str]:
    T = _load_tensor(args)
    spec = spectrum(second_kind_matrix(T))
    verdict = k_verdict(spec, args.k)
    code = 0 if verdict.nonnegative else 1

    if args.format == "csv":
        rows = [
            ["n", "N", "k", "k_sum", "nonnegative", "positive", "boundary"],
            [
                T.n,
                len(spec),
                repr(float(args.k)),
                repr(verdict.value),
                verdict.nonnegative,
                verdict.positive,
                verdict.boundary,
            ],
        ]
        return code, _csv_text(rows), "csv"

    if args.format == "json":
        payload = {
            "n": T.n,
            "fingerprint": T.fingerprint,
            "N": len(spec),
            **verdict.to_json(),
        }
        return code, json.dumps(_envelope("check", args, payload), indent=2), "json"

    word = (
        "boundary (within 1e-12 of zero)"
        if verdict.boundary
        else ("nonnegative" if verdict.nonnegative else "negative")
    )
    lines = [
        f"n = {T.n}  N = {len(spec)}  fingerprint = {T.fingerprint}",
        f"k = {_fmt(args.k)}  k_sum = {_fmt(verdict.value)}  -> {word}",
    ]
    return code, "\n".join(lines), "txt"


def _cmd_bounds(args) -> tuple[int, str, str]:
    T = _load_tensor(args)
    reports = all_checks(T, tol=args.tol)
    cert = einstein_certificate(T)
    code = 0 if all(r.ok for r in reports) else 1

    if args.format == "csv":
        rows = [["name", "lhs", "rhs", "margin", "verdict"]]
        rows += [
            [r.name, repr(r.lhs), repr(r.rhs), repr(r.margin), r.verdict]
            for r in reports
        ]
        return code, _csv_text(rows), "csv"

    if args.format == "json":
        payload = {
            "n": T.n,
            "fingerprint": T.fingerprint,
            "tol_base": TOL_INEQ if args.tol is None else args.tol,
            "checks": [r.to_json() for r in reports],
            "all_ok": all(r.ok for r in reports),
            "certificate": cert.to_json(),
        }
        return code, json.dumps(_envelope("bounds", args, payload), indent=2), "json"

    lines = [f"n = {T.n}  fingerprint = {T.fingerprint}"]
    for r in reports:
        lines.append(
            f"{r.name:<22} lhs = {_fmt(r.lhs):>18}  rhs = {_fmt(r.rhs):>18}  "
            f"margin = {_fmt(r.margin):>18}  {r.verdict}"
        )
    for c in cert.conclusions:
        lines.append(f"note: {c}")
    return code, "\n".join(lines), "txt"


def _cmd_fuzz(args) -> tuple[int, str, str]:
    summary = fuzz_campaign(
        seed=args.seed,
        trials_per_n=args.trials,
        ns=tuple(args.n) if args.n else (3, 4, 5, 6),
        e_per_tensor=args.e_per_tensor,
        tol=TOL_INEQ if args.tol is None else args.tol,
        jobs=args.jobs,
        regression_dir=args.regression_dir,
    )
    code = 0 if summary.ok else 1

    if args.format == "csv":
        rows = [["check", "min_scaled_margin"]]
        rows += [
            [name, repr(summary.min_scaled_margins[name])]
            for name in sorted(summary.min_scaled_margins)
        ]
        rows.append(["max_quad_dual_rel", repr(summary.max_quad_dual_rel)])
        rows.append(["max_eig_dual_rel", repr(summary.max_eig_dual_rel)])
        rows.append(["violations", len(summary.violations)])
        return code, _csv_text(rows), "csv"

    if args.format == "json":
        return (
            code,
            json.dumps(_envelope("fuzz", args, summary.to_json()), indent=2),
            "json",
        )

    lines = [
        f"seed = {summary.seed}  trials/n = {summary.trials_per_n}  "
        f"ns = {list(summary.ns)}  tensors = {summary.tensors}  "
        f"E per tensor = {summary.e_per_tensor}"
    ]
    for name in sorted(summary.min_scaled_margins):
        lines.append(
            f"{name:<22} worst scaled margin = "
            f"{_fmt(summary.min_scaled_margins[name])}"
        )
    lines.append(f"max dual-path rel (matrix) = {_fmt(summary.max_quad_dual_rel)}")
    lines.append(f"max dual-path rel (eigen)  = {_fmt(summary.max_eig_dual_rel)}")
    if summary.violations:
        for v in summary.violations:
            lines.append(
                f"VIOLATION {v.check} n={v.n} trial={v.trial_index} "
                f"margin={_fmt(v.margin)} saved={v.path}"
            )
    else:
        lines.append("no violations")
    return code, "\n".join(lines), "txt"


def _cmd_threshold(args) -> tuple[int, str, str]:
    profile = threshold_profile(args.n)

    if args.format == "csv":
        rows = [
            ["n", "einstein_threshold", "constant_curvature_threshold", "branch"],
            [
                profile.n,
                repr(profile.einstein_threshold),
                repr(profile.constant_curvature_threshold),
                profile.branch,
            ],
        ]
        return 0, _csv_text(rows), "csv"

    if args.format == "json":
        return (
            0,
            json.dumps(_envelope("threshold", args, profile.to_json()), indent=2),
            "json",
        )

    lines = [
        f"n = {profile.n}",
        f"einstein threshold           = {_fmt(profile.einstein_threshold)}",
        f"constant curvature threshold = {_fmt(profile.constant_curvature_threshold)}"
        f"  (branch {profile.branch})",
    ]
    return 0, "\n".join(lines), "txt"


def _cmd_models(args) -> tuple[int, str, str]:
    entries = catalog()

    if args.format == "csv":
        rows = [["kind", "parameters", "example"]]
        rows += [
            [
                e.kind,
                " ".join(f"{k}:{v}" for k, v in e.params.items()),
                json.dumps(e.example.to_json()),
            ]
            for e in entries
        ]
        return 0, _csv_text(rows), "csv"

    if args.format == "json":
        payload = {
            "models": [
                {
                    "kind": e.kind,
                    "doc": e.doc,
                    "params": e.params,
                    "example": e.example.to_json(),
                }
                for e in entries
            ]
        }
        return 0, json.dumps(_envelope("models", args, payload), indent=2), "json"

    lines = []
    for e in entries:
        lines.append(f"{e.kind}: {e.doc}")
        lines.append(
            "  parameters: "
            + ", ".join(f"{k} ({v})" for k, v in e.params.items())
        )
        lines.append(f"  example: --model '{json.dumps(e.example.to_json())}'")
    return 0, "\n".join(lines), "txt"


# --- parser and dispatch ------------------------------------------------------


def _add_output_options(p: argparse.ArgumentParser):
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    p.add_argument("--out", metavar="DIR", help="also write the report into DIR")
    p.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp so repeated runs are byte-identical",
    )


def _add_source_options(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--input", metavar="FILE",
        help="JSON file: tensor entry list, or a model document",
    )
    src.add_argument(
        "--model", metavar="JSON",
        help='inline model JSON, e.g. \'{"model": "constant_curvature", "n": 4, "kappa": 1.0}\'',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvop",
        description="Curvature operator spectra, k-positivity, and eigenvalue bounds.",
    )
    parser.add_argument("--version", action="version", version=f"curvop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of both curvature operators")
    _add_source_options(p)
    p.add_argument(
        "--matrices", action="store_true",
        help="include dense operator matrices in JSON output",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="k-nonnegativity of the second-kind spectrum")
    _add_source_options(p)
    p.add_argument("--k", type=float, required=True, help="fractional count, 1 <= k <= N")
    _add_output_options(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="the five spectral lower-bound checks")
    _add_source_options(p)
    p.add_argument("--tol", type=float, help=f"base margin tolerance (default {TOL_INEQ})")
    _add_output_options(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fuzz", help="randomized campaign over seeded tensors")
    p.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p.add_argument("--trials", type=int, default=50, help="tensors per dimension (default 50)")
    p.add_argument(
        "--n", type=int, action="append", metavar="N",
        help="dimension to fuzz; repeatable (default 3 4 5 6)",
    )
    p.add_argument(
        "--e-per-tensor", type=int, default=8,
        help="random trace-free tensors per curvature tensor (default 8)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--tol", type=float, help=f"base margin tolerance (default {TOL_INEQ})")
    p.add_argument(
        "--regression-dir", metavar="DIR",
        help="where to save violators (default $CURVOP_REGRESSION_DIR or ./regressions)",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("threshold", help="k thresholds for a dimension")
    p.add_argument("--n", type=int, required=True, help="dimension, n >= 3")
    _add_output_options(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("models", help="catalog of built-in model tensors")
    _add_output_options(p)
    p.set_defaults(func=_cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output, ext = args.func(args)
    except (CliError, CurvopError, ValueError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    print(output)
    if args.out:
        try:
            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{args.command}.{ext}").write_text(output + "\n")
        except OSError as bad:
            print(f"error: cannot write report: {bad}", file=sys.stderr)
            return 2
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
