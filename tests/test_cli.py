"""Command-line tests, run through subprocess or in-process through ``main``."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvop.models
import curvop.verify
from curvop import SchemaError, fuzz_campaign, model_from_json
from curvop.cli import main
from curvop.base import (_fuzz_arguments, _json_text, _physical_memory, _require_memory,
                         _tensor_bytes)

SPHERE = '{"model": "constant_curvature", "n": 4, "kappa": 1.0}'
PRODUCT = '{"model": "product_spheres", "p": 2, "q": 3, "r1": 1.0, "r2": 1.0}'
CP2 = '{"model": "fubini_study", "m": 2}'


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "curvop", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


def run_main(capsys, *args):
    """``main(args)`` in this process: (exit code, stdout, stderr)."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_version():
    proc = run_cli("--version", check=True)
    assert proc.stdout.startswith("curvop ")


def test_spectrum_json_sphere():
    proc = run_cli(
        "spectrum", "--model", SPHERE, "--format", "json", "--no-timestamp",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["command"] == "spectrum"
    assert "timestamp" not in doc
    assert doc["n"] == 4
    lam2 = doc["first_kind"]
    s02 = doc["second_kind"]
    assert lam2["domain"] == "lambda2" and s02["domain"] == "s02"
    assert lam2["dim"] == 6 and s02["dim"] == 9
    assert all(abs(v - 1.0) < 1e-10 for v in lam2["eigenvalues"])
    assert all(abs(v - 1.0) < 1e-10 for v in s02["eigenvalues"])
    (value, count), = s02["multiplicities"]
    assert count == 9 and abs(value - 1.0) < 1e-10


def test_spectrum_includes_matrices_on_request():
    proc = run_cli(
        "spectrum", "--model", SPHERE, "--format", "json", "--no-timestamp",
        "--matrices", check=True,
    )
    doc = json.loads(proc.stdout)
    M = doc["matrices"]["second_kind"]
    assert M["domain"] == "s02" and M["dim"] == 9
    assert len(M["entries"]) == 9 and len(M["entries"][0]) == 9
    assert M["entries"][0][0] == pytest.approx(1.0)


def test_spectrum_csv_has_one_row_per_operator(capsys):
    proc = run_cli("spectrum", "--model", SPHERE, "--format", "csv", check=True)
    rows = [r for r in proc.stdout.strip().splitlines() if r]
    assert len(rows) == 2
    assert rows[0].startswith("4,lambda2,6,")
    assert rows[1].startswith("4,s02,9,")
    _, out, _ = run_main(capsys, "spectrum", "--model", PRODUCT, "--format", "json")
    doc = json.loads(out)
    _, out, _ = run_main(capsys, "spectrum", "--model", PRODUCT, "--format", "csv")
    for row, key in zip(out.splitlines(), ("first_kind", "second_kind")):
        fields = row.split(",")
        spec = doc[key]
        assert fields[:3] == ["5", spec["domain"], str(spec["dim"])]
        # eigenvalues ascending, written so that they read back exactly
        assert [float(x) for x in fields[3:]] == spec["eigenvalues"]


def test_check_exit_zero_on_nonnegative():
    proc = run_cli(
        "check", "--model", SPHERE, "--k", "2.4", "--format", "json",
        "--no-timestamp",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["nonnegative"] is True
    assert doc["N"] == 9


def test_check_exit_one_on_violation():
    proc = run_cli("check", "--model", PRODUCT, "--k", "1.0", "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["value"] == pytest.approx(-1.4, rel=1e-12)


def test_check_exit_two_on_bad_k():
    proc = run_cli("check", "--model", SPHERE, "--k", "99")
    assert proc.returncode == 2
    assert "k must lie in" in proc.stderr


def test_bounds_json_and_exit_codes():
    proc = run_cli(
        "bounds", "--model", SPHERE, "--format", "json", "--no-timestamp",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    names = [r["name"] for r in doc["checks"]]
    assert names == [
        "scalar_lower_bound",
        "ricci_lower_bound",
        "ricci_combined_bound",
        "quadform_lower_bound",
        "bochner_lower_bound",
    ]
    assert all(r["verdict"] == "boundary" for r in doc["checks"])
    assert doc["certificate"]["is_einstein"] is True


def test_bounds_csv_shape():
    proc = run_cli("bounds", "--model", PRODUCT, "--format", "csv", check=True)
    rows = proc.stdout.strip().splitlines()
    assert rows[0] == "name,lhs,rhs,margin,verdict"
    assert len(rows) == 6


def test_bounds_text_mentions_every_check():
    proc = run_cli("bounds", "--model", PRODUCT, check=True)
    for name in ("scalar_lower_bound", "bochner_lower_bound"):
        assert name in proc.stdout


def test_tensor_file_input(tmp_path):
    doc = json.loads(
        run_cli("spectrum", "--model", SPHERE, "--format", "json",
                "--no-timestamp", check=True).stdout
    )
    # write the tensor itself (entry list) and feed it back by file
    from curvop import constant_curvature, tensor_to_json

    tensor_doc = tensor_to_json(constant_curvature(4, 1.0))
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(tensor_doc))
    doc2 = json.loads(
        run_cli("spectrum", "--input", str(path), "--format", "json",
                "--no-timestamp", check=True).stdout
    )
    assert doc2["first_kind"] == doc["first_kind"]
    assert doc2["second_kind"] == doc["second_kind"]


def test_model_file_input(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(PRODUCT)
    proc = run_cli("threshold", "--n", "5", "--format", "json", "--no-timestamp",
                   check=True)
    base = json.loads(proc.stdout)
    assert base["einstein_threshold"] == pytest.approx(35 / 12)
    proc = run_cli("check", "--input", str(path), "--k", "1.5")
    assert proc.returncode == 1


def test_malformed_json_reports_line_and_column():
    proc = run_cli("spectrum", "--model", '{"model": "constant_curvature",')
    assert proc.returncode == 2
    assert "line 1" in proc.stderr and "column" in proc.stderr


def test_invalid_tensor_file_is_rejected(tmp_path):
    # a single off-orbit entry produces a first-Bianchi violation
    bad = {
        "n": 4,
        "entries": [
            {"i": 0, "j": 1, "k": 2, "l": 3, "v": 1.0},
            {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("spectrum", "--input", str(path))
    assert proc.returncode == 2
    assert "bianchi" in proc.stderr.lower()


_SECTIONAL = '{"i": 0, "j": 1, "k": 0, "l": 1, "v": %s}'
_OVERFLOW_FILES = {
    "nan": '{"n": 3, "entries": [%s]}' % (_SECTIONAL % "NaN"),
    "infinity": '{"n": 3, "entries": [%s]}' % (_SECTIONAL % "Infinity"),
    "negative infinity": '{"n": 3, "entries": [%s]}' % (_SECTIONAL % "-Infinity"),
    "integer overflow": '{"n": 3, "entries": [%s]}' % (_SECTIONAL % ("1" + "0" * 400)),
    "overflowing results": (
        '{"n": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "v": 1e300}, '
        '{"i": 0, "j": 2, "k": 0, "l": 2, "v": -1e300}, '
        '{"i": 1, "j": 2, "k": 1, "l": 2, "v": 3e299}]}'
    ),
    # Valid and finite, but the second-kind matrix overflows.
    "overflowing matrices": (
        '{"n": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.5e308}, '
        '{"i": 0, "j": 2, "k": 0, "l": 2, "v": 1.5e308}, '
        '{"i": 1, "j": 2, "k": 1, "l": 2, "v": 1.5e308}]}'
    ),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOW_FILES))
def test_non_finite_input_or_result_exits_two(capsys, tmp_path, name):
    path = tmp_path / "tensor.json"
    path.write_text(_OVERFLOW_FILES[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(capsys, "bounds", "--input", str(path))
    assert code == 2 and out == ""
    expected = "too large to evaluate" if name.startswith("overflowing") else (
        "entry 0 has non-finite value"
    )
    assert expected in err
    assert not caught


@pytest.mark.parametrize("args", [("spectrum",), ("check", "--k", "2")], ids=["spectrum", "check"])
def test_overflowing_operator_matrix_exits_two(capsys, tmp_path, args):
    """Once "Eigenvalues did not converge" after numpy RuntimeWarnings on stderr."""
    path = tmp_path / "tensor.json"
    path.write_text(_OVERFLOW_FILES["overflowing matrices"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(capsys, *args, "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: matrix entry is inf: the tensor is too large to evaluate in double precision\n"
    assert not caught


@pytest.mark.parametrize("name", ["integer overflow", "overflowing results", "overflowing matrices"])
def test_non_finite_input_or_result_leaves_stderr_clean(tmp_path, name):
    path = tmp_path / "tensor.json"
    path.write_text(_OVERFLOW_FILES[name])
    proc = run_cli("bounds", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_tiny_tensor_that_breaks_bianchi_exits_two(capsys, tmp_path):
    """A 1e-11 defect is 100% of a 1e-11 tensor: judged at its own size, not at 1."""
    path = tmp_path / "tensor.json"
    path.write_text('{"n": 4, "entries": [{"i": 0, "j": 1, "k": 2, "l": 3, "v": 1e-11}]}')
    code, out, err = run_main(capsys, "bounds", "--input", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: curvature tensor violates its defining symmetries: antisymmetry 0.000e+00, "
        "pair symmetry 0.000e+00, first Bianchi 1.000e-11 (tolerance 1.0e-20)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_zero_tensor_report_has_no_negative_zero(capsys, tmp_path, fmt):
    path = tmp_path / "tensor.json"
    path.write_text('{"n": 4, "entries": []}')
    code, out, _ = run_main(capsys, "bounds", "--input", str(path), "--format", fmt,
                            "--no-timestamp")
    assert code == 0
    assert not re.findall(r"(?<![\w.])-0(\.0*)?(?![\w.])", out)


def test_each_e_free_violator_file_replays_its_margin_through_bounds(capsys, tmp_path):
    """A persisted violator is the trial's tensor, so bounds --input gives its margin to the bit."""
    fuzz_campaign(3, 33, ns=(3, 4), e_per_tensor=3, tol=0.0, regression_dir=tmp_path)
    replayed = 0
    for path in sorted(tmp_path.glob("violator_*.json")):
        meta = json.loads(path.read_text())["meta"]
        if meta["check"] in ("quadform_lower_bound", "bochner_lower_bound"):
            continue
        code, out, _ = run_main(capsys, "bounds", "--input", str(path), "--tol", "0",
                                "--format", "json", "--no-timestamp")
        margins = {c["name"]: c["margin"] for c in json.loads(out)["checks"]}
        assert code == 1 and margins[meta["check"]] == meta["margin"], (path.name, meta)
        replayed += 1
    assert replayed >= 20


def _unable_to_allocate(*args, **kwargs):
    """Raise what numpy raises for an array larger than memory, allocating nothing."""
    raise MemoryError(
        "Unable to allocate 7.28 TiB for an array with shape (1000, 1000, 1000, 1000) "
        "and data type float64"
    )


def _fail_model_build(monkeypatch):
    """Make the registry's constant-curvature builder, the one ModelSpec.build calls, fail."""
    build, *rest = curvop.models._REGISTRY["constant_curvature"]
    fail = functools.wraps(build)(_unable_to_allocate)  # keeps the parameter schema
    monkeypatch.setitem(curvop.models._REGISTRY, "constant_curvature", (fail, *rest))


@pytest.mark.parametrize("patch, args", [
    (_fail_model_build,
     ("spectrum", "--model", '{"model": "constant_curvature", "n": 1000, "kappa": 1.0}')),
    (lambda mp: mp.setattr("curvop.verify._tensor_draws", _unable_to_allocate),
     ("fuzz", "--n", "1000", "--trials", "1")),
], ids=["spectrum", "fuzz"])
def test_input_too_large_to_allocate_exits_two(capsys, monkeypatch, patch, args):
    # The size guard lets these through, so numpy's own refusal is what is
    # reported; the patched call raises it, and no array is allocated.
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 1 << 62)
    patch(monkeypatch)
    monkeypatch.setattr("numpy.zeros", pytest.fail)
    code, out, err = run_main(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Unable to allocate 7.28 TiB" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("spectrum", "--model", '{"model": "constant_curvature", "n": 40, "kappa": 1.0}'),
    ("spectrum", "--model", '{"model": "fubini_study", "m": 20}'),
    ("bounds", "--input", "{tensor}"),
    ("fuzz", "--n", "3", "--trials", str(10**12)),
], ids=["model", "fubini_study", "input", "fuzz"])
def test_input_beyond_physical_memory_exits_two_before_allocating(capsys, monkeypatch, tmp_path,
                                                                  args):
    # 20 MiB holds no 40-dimensional tensor: 8 n^4 alone is 19.5 MiB.
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 20 << 20)
    monkeypatch.setattr("numpy.zeros", _unable_to_allocate)
    tensor = tmp_path / "tensor.json"
    tensor.write_text('{"n": 40, "entries": []}')
    code, out, err = run_main(capsys, *(str(tensor) if a == "{tensor}" else a for a in args))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "too large to run" in err and "0.0195 GiB of physical memory" in err


def test_size_guard_refuses_only_an_estimate_beyond_physical_memory(monkeypatch):
    assert _tensor_bytes(3) == 8 * (3**4 + 3**2 + 5**2)
    assert _tensor_bytes(-10**9) == _tensor_bytes(0)  # a negative n is refused by its builder
    assert _physical_memory() is None or _physical_memory() > 0
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 1000)
    _require_memory("this", 1000)
    with pytest.raises(ValueError, match="^this is too large to run: it needs about 9.32e-07 GiB"):
        _require_memory("this", 1001)
    monkeypatch.setattr("curvop.base._physical_memory", lambda: None)
    _require_memory("this", 10**30)


def test_fuzz_size_guard_counts_one_probe_slice(capsys, monkeypatch):
    """One trial of 10^6 probes at n = 8 holds 488 MiB of probe matrices, 267 MiB of coordinates."""
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 64 << 20)
    monkeypatch.setattr("numpy.empty", _unable_to_allocate)
    with pytest.raises(ValueError, match=r"^a campaign of 1 trials for each n in \[8\] is too"):
        fuzz_campaign(0, 1, (8,), 10**6)
    code, out, err = run_main(capsys, "fuzz", "--n", "8", "--trials", "1",
                              "--e-per-tensor", str(10**6))
    assert (code, out) == (2, "") and "too large to run" in err
    # The benchmark's campaign and the acceptance campaign, both of 200 probes, pass.
    for trials in (25, 1000):
        _fuzz_arguments(2024, trials, range(3, 9), 200, 1e-9, 1)


def test_missing_source_is_a_usage_error():
    proc = run_cli("spectrum")
    assert proc.returncode == 2


def test_unknown_model_kind_exits_two():
    proc = run_cli("spectrum", "--model", '{"model": "torus", "n": 3}')
    assert proc.returncode == 2
    assert "torus" in proc.stderr


#: Model documents whose parameters a double cannot hold, and the parameter at fault.
_OUT_OF_RANGE_MODELS = {
    "tiny radius": ({"model": "product_spheres", "p": 2, "q": 2, "r1": 1e-200, "r2": 1}, "r1"),
    "huge radius": ({"model": "product_spheres", "p": 2, "q": 2, "r1": 1e200, "r2": 1}, "r1"),
    "401-digit kappa": ({"model": "constant_curvature", "n": 3, "kappa": 10**400}, "kappa"),
}


@pytest.mark.parametrize("command", ["bounds", "spectrum"])
@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE_MODELS))
def test_model_parameter_out_of_double_range_exits_two(capsys, name, command):
    doc, param = _OUT_OF_RANGE_MODELS[name]
    code, out, err = run_main(capsys, command, "--model", json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert doc["model"] in err and param in err
    with pytest.raises(SchemaError, match=param):
        model_from_json(doc).build()


#: Model documents with a parameter of the wrong type, and the one line they print.
_MISTYPED_MODELS = {
    "float m": ({"model": "fubini_study", "m": 2.0},
                "parameter 'm' of 'fubini_study' must be an integer, got 2.0"),
    "bool kappa": ({"model": "constant_curvature", "n": 4, "kappa": True},
                   "parameter 'kappa' of 'constant_curvature' must be a number, finite, got True"),
}


@pytest.mark.parametrize("command", ["bounds", "spectrum"])
@pytest.mark.parametrize("name", sorted(_MISTYPED_MODELS))
def test_model_parameter_of_the_wrong_type_exits_two(capsys, name, command):
    doc, message = _MISTYPED_MODELS[name]
    code, out, err = run_main(capsys, command, "--model", json.dumps(doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_threshold_text_and_branches():
    proc = run_cli("threshold", "--n", "14", "--format", "json", "--no-timestamp",
                   check=True)
    doc = json.loads(proc.stdout)
    assert doc["constant_curvature_threshold"] == 4.0
    assert doc["branch"] == "iii"
    proc = run_cli("threshold", "--n", "2")
    assert proc.returncode == 2


@pytest.mark.parametrize("n, fmt", [(10**200, "json"), (10**400, "text")],
                         ids=["10**200-json", "10**400-text"])
def test_threshold_out_of_double_range_exits_two(n, fmt):
    """Once exit 0 with "Infinity" in the JSON, and exit 1 with an OverflowError."""
    proc = run_cli("threshold", "--n", str(n), "--format", fmt)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "out of double precision range" in proc.stderr and str(n) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_models_catalog_lists_all_kinds():
    proc = run_cli("models", check=True)
    for kind in ("constant_curvature", "product_spheres", "fubini_study"):
        assert kind in proc.stdout


def test_fuzz_small_campaign_json():
    proc = run_cli(
        "fuzz", "--seed", "5", "--trials", "4", "--n", "3", "--n", "4",
        "--e-per-tensor", "3", "--format", "json", "--no-timestamp",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tensors"] == 8
    assert doc["ns"] == [3, 4]
    assert doc["ok"] is True


def test_fuzz_rejects_bad_arguments_with_exit_two():
    for args, word in ((("--e-per-tensor", "0"), "e_per_tensor"),
                       (("--seed", "-1"), "seed"),
                       (("--trials", "0"), "trials_per_n"),
                       (("--tol", "-1"), "tol"),
                       (("--tol", "nan"), "tol"),
                       (("--jobs", "0"), "jobs"),
                       (("--jobs", "-3"), "jobs")):
        proc = run_cli("fuzz", "--n", "3", *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert word in proc.stderr, (args, proc.stderr)


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_bounds_rejects_bad_tol_with_exit_two(capsys, tol):
    code, out, err = run_main(capsys, "bounds", "--model", SPHERE, "--tol", tol)
    assert code == 2 and out == ""
    assert "tol" in err


def test_bounds_assembles_and_eigensolves_once(capsys, monkeypatch):
    calls = {"second_kind_matrix": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(curvop.verify, "second_kind_matrix",
                        counted("second_kind_matrix", curvop.verify.second_kind_matrix))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    code, _, _ = run_main(capsys, "bounds", "--model", PRODUCT, "--format", "json")
    assert code == 0
    assert calls == {"second_kind_matrix": 1, "eigh": 1}


def test_bounds_contracts_ricci_once(capsys, monkeypatch):
    subscripts = []
    einsum = np.einsum

    def recording(*args, **kwargs):
        subscripts.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    code, _, _ = run_main(capsys, "bounds", "--model", PRODUCT, "--format", "json")
    assert code == 0
    assert sum("kikj" in s for s in subscripts) == 1


def _main_in(argv) -> str:
    """Source that runs ``main(argv)`` with its output and its exit swallowed."""
    return ("import contextlib, io\nfrom curvop.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            f"    main({list(argv)!r})")


CURVOP_MODULES = tuple(f"curvop.{m}" for m in
                       ("base", "core", "operators", "weighted", "models", "verify", "cli"))

#: Files of the refusals below, written into the directory "{dir}" stands for.
REFUSAL_FILES = {
    "bad.json": '{"n": 4,',
    "flat4.json": '{"n": 4, "entries": []}',
    "flat2.json": '{"n": 2, "entries": []}',
    "huge.json": '{"n": 100000, "entries": []}',
    "text.json": '"text"',
}

_TOO_LARGE = ("is too large to run: it needs about {} GiB, "
              "more than the 0.0195 GiB of physical memory")

#: Inputs refused with exit code 2 by a rule that needs no array, and the one
#: line each prints, with 20 MiB of physical memory.  "{dir}" holds REFUSAL_FILES.
REFUSALS = {
    "bad JSON in --model": (
        ("spectrum", "--model", '{"model": "constant_curvature",'),
        "malformed JSON in --model: Expecting property name enclosed in double quotes "
        "at line 1 column 32"),
    "bad JSON in --input": (
        ("spectrum", "--input", "{dir}/bad.json"),
        "malformed JSON in {dir}/bad.json: Expecting property name enclosed in double quotes "
        "at line 1 column 9"),
    "unreadable file": (
        ("spectrum", "--input", "{dir}/missing.json"),
        "cannot read {dir}/missing.json: [Errno 2] No such file or directory: "
        "'{dir}/missing.json'"),
    "non-object --model": (
        ("spectrum", "--model", "[1, 2]"), "--model: expected a JSON object, got list"),
    "non-object --input": (
        ("spectrum", "--input", "{dir}/text.json"),
        "{dir}/text.json: expected a JSON object, got str"),
    "unknown model": (
        ("spectrum", "--model", '{"model": "nope"}'),
        "unknown model 'nope'; available: ['constant_curvature', 'fubini_study', "
        "'product_spheres']"),
    "missing parameter": (
        ("spectrum", "--model", '{"model": "constant_curvature", "n": 4}'),
        "model 'constant_curvature' is missing parameter 'kappa'"),
    "mistyped parameter": (
        ("check", "--model", '{"model": "fubini_study", "m": 2.0}', "--k", "2"),
        "parameter 'm' of 'fubini_study' must be an integer, got 2.0"),
    "out-of-range parameter": (
        ("bounds", "--model", '{"model": "constant_curvature", "n": 1, "kappa": 1.0}'),
        "model 'constant_curvature': n must be an integer >= 2, got 1"),
    "out-of-range radius": (
        ("spectrum", "--model",
         '{"model": "product_spheres", "p": 2, "q": 3, "r1": 1e-200, "r2": 1.0}'),
        "model 'product_spheres': r1 = 1e-200 puts the curvature 1/r1^2 out of range"),
    "oversized model": (
        ("check", "--model", '{"model": "constant_curvature", "n": 100000, "kappa": 1.0}',
         "--k", "0"),
        "model 'constant_curvature' of dimension n = 100000 " + _TOO_LARGE.format("1.12e+12")),
    "oversized tensor": (
        ("bounds", "--input", "{dir}/huge.json"),
        "a tensor of dimension n = 100000 " + _TOO_LARGE.format("1.12e+12")),
    "k above N for --model": (
        ("check", "--model", SPHERE, "--k", "99"), "k must lie in [1, 9], got 99.0"),
    "k below 1 for --input": (
        ("check", "--input", "{dir}/flat4.json", "--k", "0.5"), "k must lie in [1, 9], got 0.5"),
    "k not finite": (
        ("check", "--model", SPHERE, "--k", "nan"), "k must be a number, finite, got nan"),
    "bounds on n = 2 for --input": (
        ("bounds", "--input", "{dir}/flat2.json"), "curvature bounds require n >= 3"),
    "bounds on n = 2 for --model": (
        ("bounds", "--model", '{"model": "fubini_study", "m": 1}'),
        "curvature bounds require n >= 3"),
    "bounds with a bad tol": (
        ("bounds", "--model", SPHERE, "--tol", "-1"),
        "tol must be a number, finite and >= 0, got -1.0"),
    "fuzz --trials 0": (("fuzz", "--trials", "0"), "trials_per_n must be an integer >= 1, got 0"),
    "fuzz --n 2": (
        ("fuzz", "--n", "2"), "each of the fuzz dimensions must be an integer >= 3, got 2"),
    "fuzz --e-per-tensor 0": (
        ("fuzz", "--e-per-tensor", "0"), "e_per_tensor must be an integer >= 1, got 0"),
    "fuzz --tol -1": (("fuzz", "--tol", "-1"), "tol must be a number, finite and >= 0, got -1.0"),
    "oversized campaign": (
        ("fuzz", "--n", "3", "--trials", str(10**12)),
        "a campaign of 1000000000000 trials for each n in [3] " + _TOO_LARGE.format("5.82e+05")),
    "campaign beyond the double range": (
        ("fuzz", "--n", str(10**100), "--trials", "1"),
        f"a campaign of 1 trials for each n in [{10**100}] " + _TOO_LARGE.format("inf")),
}


def _write_refusal_files(directory) -> None:
    for file, text in REFUSAL_FILES.items():
        (directory / file).write_text(text)


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_that_needs_no_array_prints_its_one_line(capsys, monkeypatch, tmp_path, name):
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 20 << 20)
    _write_refusal_files(tmp_path)
    argv, message = REFUSALS[name]
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    message = message.replace("{dir}", str(tmp_path))
    assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args, message", [
    (("check", "--k", "99"), "k must lie in [1, 9], got 99.0"),
    (("bounds", "--tol", "-1"), "tol must be a number, finite and >= 0, got -1.0"),
], ids=["check", "bounds"])
def test_a_refusal_from_the_arguments_comes_before_a_fault_in_the_entries(capsys, tmp_path, args,
                                                                          message):
    """The document's header is read first, then the command's rules, then the entries."""
    path = tmp_path / "tensor.json"
    path.write_text('{"n": 4, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0}, '
                    '{"i": 1, "j": 0, "k": 1, "l": 0, "v": 2.0}]}')
    code, out, err = run_main(capsys, args[0], "--input", str(path), *args[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, err = run_main(capsys, args[0], "--input", str(path),
                            *(("--k", "2") if args[0] == "check" else ()))
    assert (code, err) == (2, "error: entry 1 conflicts with an earlier entry at component "
                              "(1,0,1,0): 1.0 vs 2.0\n")


# (source, packages and modules it must not load); "{dir}" holds REFUSAL_FILES.
IMPORT_CASES = [
    ("import curvop.cli", ("concurrent", "multiprocessing", "csv")),
    ("import curvop", ("numpy", *CURVOP_MODULES)),
    ("import curvop\ncurvop.s2_traceless_dim(5)\ncurvop.lambda2_dim(5)", ("numpy",)),
    (_main_in(["threshold", "--n", "5", "--format", "json"]), ("numpy", "dataclasses")),
    (_main_in(["models", "--format", "text"]), ("numpy", "dataclasses")),
    (_main_in(["--help"]), ("numpy", "dataclasses")),
    (_main_in(["--version"]), ("numpy", "dataclasses")),
    (_main_in(["spectrum", "--model", SPHERE]), ("curvop.verify", "dataclasses")),
    (_main_in(["check", "--model", SPHERE, "--k", "2"]), ("curvop.verify", "dataclasses")),
    (_main_in(["bounds", "--model", SPHERE]), ("dataclasses",)),
    (_main_in(["fuzz", "--trials", "1", "--n", "3", "--e-per-tensor", "2"]), ("dataclasses",)),
    ("from curvop import constant_curvature\ntry:\n    constant_curvature(10**5, 1.0)\n"
     "except ValueError:\n    pass", ("numpy",)),
    *((_main_in(argv), ("numpy", "dataclasses")) for argv, _ in REFUSALS.values()),
    ("import curvop.base\ncurvop.base._physical_memory = lambda: 64 << 20\n"
     + _main_in(["fuzz", "--n", "8", "--trials", "1", "--e-per-tensor", str(10**6)]),
     ("numpy", "dataclasses")),
]


def test_cli_import_skips_the_process_pool(tmp_path):
    """Each command loads only what it runs, each case in a fresh interpreter.

    The pool's modules load only when ``fuzz --jobs`` > 1 runs one;
    ``import curvop`` loads no submodule; ``threshold``, ``models``,
    ``--help``, ``--version``, a model builder refused for its size,
    every refusal in ``REFUSALS`` and a campaign refused for its probes
    never load numpy; ``spectrum`` and ``check`` never load ``verify``;
    and no command loads ``dataclasses``.
    """
    _write_refusal_files(tmp_path)
    for source, banned in IMPORT_CASES:
        probe = source.replace("{dir}", str(tmp_path)) + "\nimport sys; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        loaded = [m for m in proc.stdout.split()
                  if any(m == b or m.startswith(b + ".") for b in banned)]
        assert loaded == [], source


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_two_with_one_line(tmp_path, buffered):
    """A reader that has gone (``curvop ... | head -c 10``) is a failed write, not a traceback."""
    env = dict(os.environ)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    # About 0.4 MB: more than a pipe holds, so the write fails even if it came first.
    args = ("spectrum", "--model", '{"model": "fubini_study", "m": 8}', "--matrices",
            "--format", "json")
    with open(tmp_path / "stderr", "w") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "curvop", *args], env=env,
                                stdout=subprocess.PIPE, stderr=stderr)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
    err = (tmp_path / "stderr").read_text()
    assert err.startswith("error: cannot write report: ") and len(err.splitlines()) == 1


def test_repeated_runs_are_byte_identical():
    args = ("bounds", "--model", PRODUCT, "--format", "json", "--no-timestamp")
    a = run_cli(*args, check=True).stdout
    b = run_cli(*args, check=True).stdout
    assert a == b


def test_timestamp_present_by_default():
    doc = json.loads(
        run_cli("threshold", "--n", "5", "--format", "json", check=True).stdout
    )
    assert "timestamp" in doc


def test_out_directory_receives_identical_copy(tmp_path):
    proc = run_cli(
        "bounds", "--model", SPHERE, "--format", "json", "--no-timestamp",
        "--out", str(tmp_path), check=True,
    )
    saved = (tmp_path / "bounds.json").read_text()
    assert saved == proc.stdout


def test_out_csv_extension(tmp_path):
    run_cli(
        "spectrum", "--model", SPHERE, "--format", "csv", "--out", str(tmp_path),
        check=True,
    )
    assert (tmp_path / "spectrum.csv").exists()


# --- one report, three views ---------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CALLS = {
    "threshold_n3": ("threshold", "--n", "3"),
    "threshold_n8": ("threshold", "--n", "8"),
    "threshold_n14": ("threshold", "--n", "14"),
    "models": ("models",),
    "spectrum_s4": ("spectrum", "--model", SPHERE),
    "check_s4_k2": ("check", "--model", SPHERE, "--k", "2.0"),
    "bounds_s4": ("bounds", "--model", SPHERE),
    "spectrum_cp2_matrices": ("spectrum", "--model", CP2, "--matrices"),
    "fuzz_s5": ("fuzz", "--seed", "5", "--trials", "40", "--n", "3", "--n", "8",
                "--e-per-tensor", "200"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
def test_text_matches_golden_bytes(capsys, name):
    """The default text view is pinned byte for byte too (floats as .12g)."""
    code, out, _ = run_main(capsys, *GOLDEN_CALLS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
def test_machine_formats_match_golden_bytes(capsys, name, fmt):
    """JSON and CSV reports are pinned byte for byte.

    Floats are compared to the last bit, which the LAPACK build behind
    numpy can move.
    """
    code, out, _ = run_main(capsys, *GOLDEN_CALLS[name], "--format", fmt, "--no-timestamp")
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()


_NUMBERS = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
)
_TEXT = st.text() | st.sampled_from([", ", "a, b", "\n", "\u00e9, \u4e2d\n"])
_SCALARS = st.one_of(
    st.none(), st.booleans(), _NUMBERS, _TEXT, st.floats().map(np.float64)
)
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.lists(_NUMBERS, max_size=6),
        st.lists(_NUMBERS, max_size=6).map(tuple),
        st.lists(_NUMBERS | st.booleans() | st.none(), max_size=6),
        st.lists(_NUMBERS | st.floats().map(np.float64), max_size=6),
        # A scalar first, then anything: the flat encoding is tried and refused.
        st.tuples(_NUMBERS | st.booleans() | st.none(), st.lists(inner, min_size=1, max_size=3))
        .map(lambda head_tail: [head_tail[0], *head_tail[1]]),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
@example({"a, b": [[], {}, [1, True, None, 2**70, -0.0, 5e-324, 1e308, math.nan,
                              math.inf, -math.inf, np.float64(0.1)],
                   {1: "\u00e9\n, ", 2.5: [], None: {}, False: [[]], math.nan: [0]}]})
@example((1, 2.5, (3, None), ()))
@example([1, "a, b"])
@example([0.5, [1]])
@example((None, {"k": 1}))
@example([True, []])
@example([2**70, {}])
# Flat number lists at three depths, each beside a list the flat encoding refuses.
@example({"a": [1, 2.5], "b": {"c": (-0.0, math.nan), "d": [[3, 4], [0.5, [1]], (5, "e")]},
          "f": [[6.5, math.inf], (None, {"k": [7, 8]})]})
def test_json_text_is_the_indented_json_dump(value):
    assert _json_text(value) == json.dumps(value, indent=2)


TEXT_CALLS = [
    ("spectrum", "--model", SPHERE, "--matrices"),
    ("check", "--model", PRODUCT, "--k", "1.0"),
    ("bounds", "--model", PRODUCT),
    ("fuzz", "--seed", "5", "--trials", "2", "--n", "3", "--e-per-tensor", "2"),
    ("threshold", "--n", "14"),
    ("models",),
]


@pytest.mark.parametrize("args", TEXT_CALLS, ids=[a[0] for a in TEXT_CALLS])
def test_text_shows_every_payload_field(capsys, args):
    code, out, _ = run_main(capsys, *args, "--format", "json", "--no-timestamp")
    doc = json.loads(out)
    text_code, text, _ = run_main(capsys, *args)
    assert text_code == code
    keys = [line.split(":")[0] for line in text.splitlines() if not line.startswith(" ")]
    assert keys == [key for key in doc if key not in ("command", "timestamp")]
