"""Command-line interface.

One binary, six subcommands:

* ``spectrum``   eigenvalues of both curvature operators of a tensor
* ``check``      k-nonnegativity of the second-kind spectrum
* ``bounds``     the five spectral lower-bound checks plus certificate
* ``fuzz``       randomized campaign over seeded tensors
* ``threshold``  dimension-dependent k thresholds
* ``models``     catalog of built-in model tensors

Each subcommand computes one report: a payload of JSON values plus the
rows of its CSV table.  ``--format`` only picks the view: the payload in
a JSON envelope, the CSV rows, or the payload as indented text.

Exit codes: 0 success / property holds, 1 a checked mathematical
property fails (negative k-sum, violated bound), 2 malformed input,
out-of-domain parameters, or an input too large to allocate.  With
``--no-timestamp`` any subcommand run twice on identical inputs emits
byte-identical output.

Each command imports the modules it runs inside its ``_cmd_*``
function, and only once its input has passed every refusal that needs
no array: the read and the parse, the model spec or the tensor
document's header, the size guard, and the command's own rules on its
arguments and the dimension (``base`` and ``models`` hold each of them).
So ``threshold``, ``models`` and every such refusal never load numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .base import (TOL_INEQ, CurvopError, _fuzz_arguments, _json_text, _k_count,
                   _require_bounds_dimension, _tensor_header, _tol, s2_traceless_dim,
                   threshold_profile)

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


def _load_tensor(args, rule=None):
    """Validated tensor from --input FILE (tensor or model doc) or --model JSON.

    Every refusal that needs no array comes first, in this order: the
    read, the parse, the model spec or the document header, the size
    guard, then ``rule(n)``, the command's own rule on the dimension n.
    Only then are numpy and the array modules imported.
    """
    from .models import model_from_json

    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except OSError as bad:
            raise CliError(f"cannot read {args.input}: {bad}") from None
        obj = _parse_json(text, where=args.input)
        del text  # the raw text need not outlive the parse while the tensor is built
    else:
        obj = _parse_json(args.model, where="--model")
    spec = model_from_json(obj) if "model" in obj else None
    n = spec.n if spec else _tensor_header(obj)[0]
    if rule:
        rule(n)
    from .core import tensor_from_json

    T = spec.build() if spec else tensor_from_json(obj)
    del obj  # nor the parsed document while the tensor is validated
    return T.require_valid()


# --- rendering: one payload, three views -------------------------------------


def _envelope(command: str, args, payload: dict) -> dict:
    doc = {"command": command}
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc.update(payload)
    return doc


def _csv_text(rows: list[list]) -> str:
    import csv  # only the CSV view needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _cell(value) -> str:
    """A scalar, or a list of scalars, on one line; floats as .12g."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_cell, value)) + "]"
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _table(records: list[dict], pad: str) -> list[str]:
    """Flat records as one left-aligned table under a header row."""
    header = list(records[0])
    cells = [header] + [[_cell(r[key]) for key in header] for r in records]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return [
        (pad + "  ".join(c.ljust(w) for c, w in zip(row, widths))).rstrip()
        for row in cells
    ]


def _is_flat(record) -> bool:
    return isinstance(record, dict) and not any(
        isinstance(v, (dict, list)) for v in record.values()
    )


def _text(payload: dict, pad: str = "") -> str:
    """The payload as ``key: value`` lines nested by indentation, losslessly."""
    lines = []
    for key, value in payload.items():
        items = value if isinstance(value, list) else []
        if isinstance(value, dict):
            body = [_text(value, pad + "  ")]
        elif items and all(map(_is_flat, items)):
            body = _table(items, pad + "  ")
        elif items and all(isinstance(v, dict) for v in items):
            body = [f"{pad}  - " + _text(v, pad + "    ")[len(pad) + 4:] for v in items]
        elif items and all(isinstance(v, (str, list)) for v in items):
            body = [f"{pad}  {_cell(v)}" for v in items]
        else:
            lines.append(f"{pad}{key}: {_cell(value)}")
            continue
        lines += [f"{pad}{key}:", *body]
    return "\n".join(lines)


# --- subcommand implementations: each returns (exit code, payload, csv rows) --


def _cmd_spectrum(args):
    T = _load_tensor(args)
    from .operators import first_kind_matrix, operator_to_json, second_kind_matrix, spectrum

    payload = {"n": T.n, "fingerprint": T.fingerprint}
    matrices = {"first_kind": first_kind_matrix(T), "second_kind": second_kind_matrix(T)}
    rows = []
    for key, M in matrices.items():
        spec = spectrum(M)
        values = spec.values.tolist()
        payload[key] = {
            "domain": M.domain,
            "dim": len(spec),
            "eigenvalues": values,
            "multiplicities": [[v, c] for v, c in spec.multiplicities()],
        }
        rows.append([T.n, M.domain, len(spec), *values])
    if args.matrices:
        payload["matrices"] = {key: operator_to_json(M) for key, M in matrices.items()}
    return 0, payload, rows


def _cmd_check(args):
    T = _load_tensor(args, lambda n: _k_count(args.k, s2_traceless_dim(n)))
    from .operators import second_kind_matrix, spectrum
    from .weighted import k_verdict

    spec = spectrum(second_kind_matrix(T))
    verdict = k_verdict(spec, args.k)
    payload = {"n": T.n, "fingerprint": T.fingerprint, "N": len(spec), **verdict.to_json()}
    rows = [
        ["n", "N", "k", "k_sum", "nonnegative", "positive", "boundary"],
        [T.n, len(spec), verdict.k, verdict.value, verdict.nonnegative,
         verdict.positive, verdict.boundary],
    ]
    return (0 if verdict.nonnegative else 1), payload, rows


def _cmd_bounds(args):
    def rule(n):
        _require_bounds_dimension(n)
        _tol(args.tol)

    T = _load_tensor(args, rule)
    from .verify import _certificate, _checks, _prepare

    prep = _prepare(T)
    reports = _checks(prep, None, args.tol, None)
    all_ok = all(r.ok for r in reports)
    payload = {
        "n": prep.n,
        "fingerprint": prep.T.fingerprint,
        "tol_base": args.tol,
        "checks": [r.to_json() for r in reports],
        "all_ok": all_ok,
        "certificate": _certificate(prep).to_json(),
    }
    header = ["name", "lhs", "rhs", "margin", "verdict"]
    rows = [header] + [[c[key] for key in header] for c in payload["checks"]]
    return (0 if all_ok else 1), payload, rows


def _cmd_fuzz(args):
    ns = tuple(args.n) if args.n else (3, 4, 5, 6)
    campaign = _fuzz_arguments(args.seed, args.trials, ns, args.e_per_tensor, args.tol, args.jobs)
    from .verify import fuzz_campaign

    summary = fuzz_campaign(*campaign, regression_dir=args.regression_dir)
    payload = summary.to_json()
    margins = payload["min_scaled_margins"]
    rows = [
        ["check", "min_scaled_margin"],
        *([name, margins[name]] for name in sorted(margins)),
        ["max_quad_dual_rel", summary.max_quad_dual_rel],
        ["max_eig_dual_rel", summary.max_eig_dual_rel],
        ["violations", len(summary.violations)],
    ]
    return (0 if summary.ok else 1), payload, rows


def _cmd_threshold(args):
    payload = threshold_profile(args.n).to_json()
    return 0, payload, [list(payload), list(payload.values())]


def _cmd_models(args):
    from .models import catalog

    models = [e.to_json() for e in catalog()]
    rows = [["kind", "parameters", "example"]] + [
        [m["kind"], " ".join(f"{k}:{v}" for k, v in m["params"].items()),
         json.dumps(m["example"])]
        for m in models
    ]
    return 0, {"models": models}, rows


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
    tol = dict(type=float, default=TOL_INEQ, help=f"base margin tolerance (default {TOL_INEQ})")

    p = sub.add_parser("spectrum", help="eigenvalues of both curvature operators")
    _add_source_options(p)
    p.add_argument(
        "--matrices", action="store_true",
        help="include the dense operator matrices (JSON and text output)",
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
    p.add_argument("--tol", **tol)
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
    p.add_argument("--tol", **tol)
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
        code, payload, rows = args.func(args)
    except (CliError, CurvopError, ValueError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except MemoryError as bad:
        print(f"error: input too large to allocate: {bad}", file=sys.stderr)
        return 2
    if args.format == "json":
        output, ext = _json_text(_envelope(args.command, args, payload)), "json"
    elif args.format == "csv":
        output, ext = _csv_text(rows), "csv"
    else:
        output, ext = _text(payload), "txt"
    try:
        print(output, flush=True)
    except OSError as bad:  # a closed pipe, as in `curvop ... | head`
        # Python flushes stdout again at exit; point it at devnull so that
        # the line below stays the one report of the failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write report: {bad}", file=sys.stderr)
        return 2
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
