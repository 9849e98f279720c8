"""Self-tests for the benchmark: metric names and units, checkers, tracer, statistics.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench

They sit outside the tier-1 ``testpaths`` because the smoke runs start
many interpreters.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import curvop  # noqa: E402
import curvop.cli  # noqa: E402
from checks import check_bounds, check_cli, check_fuzz, check_spectrum, first_kind_gather  # noqa: E402
from run import tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from yardstick import STICKS, scaled  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _cli(*argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = curvop.cli.main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _fuzz_record(seed=5) -> dict:
    summary = curvop.fuzz_campaign(seed, 2, ns=(3, 4), e_per_tensor=5)
    return {"text": json.dumps(summary.to_json(), sort_keys=True)}


def test_fuzz_checker_rejects_corruption():
    good = _fuzz_record()
    assert check_fuzz(good, 4, None) == []
    assert check_fuzz(good, 4, good["text"]) == []
    assert check_fuzz(good, 5, None)
    assert check_fuzz(good, 4, _fuzz_record(seed=6)["text"])
    for key, value in (("max_quad_dual_rel", 1e-6), ("max_eig_dual_rel", float("nan")), ("ok", False)):
        doc = json.loads(good["text"])
        doc[key] = value
        assert check_fuzz({"text": json.dumps(doc, sort_keys=True)}, 4, None), key


def test_bounds_checker_rejects_changed_margin_and_exit_code():
    T = curvop.random_curvature(2, 5)
    reference = [{"name": r.name, "margin": r.margin, "lhs": r.lhs, "rhs": r.rhs}
                 for r in curvop.all_checks(T)]
    code, out = _cli("bounds", "--model", '{"model": "product_spheres", "p": 2, "q": 3, '
                     '"r1": 1.0, "r2": 1.0}', "--format", "json", "--no-timestamp")
    ref_product = [{"name": c["name"], "margin": c["margin"], "lhs": c["lhs"], "rhs": c["rhs"]}
                   for c in json.loads(out)["checks"]]
    assert check_bounds(code, out, ref_product, out) == []
    assert check_bounds(code, out, reference, None)  # another tensor's margins
    assert check_bounds(1, out, ref_product, None)
    doc = json.loads(out)
    doc["checks"][1]["margin"] *= 1.0 + 1e-6
    assert check_bounds(0, json.dumps(doc, indent=2).encode(), ref_product, None)
    assert check_bounds(0, out + b" ", ref_product, out)


def test_spectrum_checker_rejects_changed_eigenvalue_and_exit_code():
    model = {"model": "fubini_study", "m": 2}
    T = curvop.model_from_json(model).build()
    code, out = _cli("spectrum", "--model", json.dumps(model), "--matrices", "--format",
                     "json", "--no-timestamp")
    expected = first_kind_gather(T.components)
    N = (T.n - 1) * (T.n + 2) // 2
    assert check_spectrum(code, out, expected, N) == []
    assert check_spectrum(2, out, expected, N)
    for kind in ("first_kind", "second_kind"):
        doc = json.loads(out)
        doc[kind]["eigenvalues"][-1] += 1e-6
        assert check_spectrum(0, json.dumps(doc).encode(), expected, N), kind
    doc = json.loads(out)
    doc["matrices"]["first_kind"]["entries"][0][1] += 1e-9
    doc["matrices"]["first_kind"]["entries"][1][0] += 1e-9
    assert check_spectrum(0, json.dumps(doc).encode(), expected, N)


def test_cli_checker_rejects_wrong_exit_code_and_changed_output():
    assert check_cli(1, b"x", 1, b"x") == []
    assert check_cli(0, b"x", 1, b"x")
    assert check_cli(2, b"", 0, b"")
    assert check_cli(0, b"x\n", 0, b"x")


def test_first_kind_gather_matches_operator():
    T = curvop.random_curvature(4, 6)
    assert np.allclose(first_kind_gather(T.components), curvop.first_kind_matrix(T).entries,
                       rtol=0, atol=1e-12 * np.max(np.abs(T.components)))


def test_tracer_counts_calls_self_time_and_restores_bindings():
    original = curvop.operators.second_kind_matrix
    tracer = Tracer()
    T = curvop.random_curvature(1, 5)
    with tracer.installed():
        assert curvop.operators.second_kind_matrix is not original
        assert curvop.verify.second_kind_matrix is curvop.operators.second_kind_matrix
        curvop.all_checks(T)  # outside a request: no spans
        assert tracer.names == []
        with tracer.span_request(0):
            curvop.all_checks(T)
        with tracer.span_request(1):
            curvop.all_checks(T)
    assert curvop.operators.second_kind_matrix is original
    assert curvop.verify.second_kind_matrix is original
    metrics = tracer.layer_metrics(per_request=2, setups=1)
    assert metrics["operators.second_kind_matrix.calls_per_command"] == 1.0
    assert metrics["kernel.eigh.calls"] == 1.0
    assert metrics["verify.all_checks_s"] > 0.0
    top = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert [tracer.names[i] for i in top] == ["verify.all_checks"] * 2
    assert set(tracer.requests) == {0, 1}


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs) == (90.0, 90.0, 10)
    assert tail(xs[:40]) == (30.0, 75.0, 10)
    assert tail(xs[:39]) == (39.0, 100.0, 0)
    assert tail(xs[:5]) == (5.0, 100.0, 0)


def test_scaled_divides_each_group_by_the_mean_of_its_probes():
    assert scaled([[1.0, 2.0], [3.0], []], [1.0, 3.0, 1.0], 2.0) == [1.0, 2.0, 3.0]
    assert scaled([[]], [0.5], 1.0) == []
    with pytest.raises(ValueError):
        scaled([[1.0]], [1.0], 1.0)


@pytest.mark.parametrize("name", sorted(STICKS))
def test_yardsticks_run_and_take_time(name):
    assert STICKS[name].probe() > 0.0
