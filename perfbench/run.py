"""curvop benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {fuzz,bounds_large,spectrum_large,cli_small}
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run that gives the per-layer metrics.  Every output is
checked; ``--smoke`` shrinks the inputs for the self-tests.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the machine metadata, sample counts and computed sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, set before numpy loads and inherited by every child.  With
# two, OpenBLAS spins a helper on the second core, so each call also waits on
# whatever else that core of the shared host is doing.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
# The CPUs this process may use, before it pins itself (and so its children)
# to the last of them: then the calls and the yardstick probes between them
# share one core and feel the same load from the rest of the host.
CPUS = sorted(os.sched_getaffinity(0))
# Set-up repeats at least three times and for at least a second, so the
# median of short set-ups is not one scheduler hiccup.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
STARTUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "tensors_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("ms_per_tensor"):
        return "ms"
    if name.endswith(".calls") or name.endswith(".calls_per_command"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    Below 40 samples that percentile would sit under the 75th, which is no
    tail, so the maximum is reported instead (nothing beyond it).
    """
    xs = sorted(samples)
    idx = len(xs) - 11 if len(xs) >= 40 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def machine_metadata() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy older than 1.26 has no mode argument
        deps = {}
    blas = {
        lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version", "openblas configuration")}
        for lib in ("blas", "lapack")
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(CPUS),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_lapack": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def startup_floor(workload) -> dict[str, float]:
    """Median wall time of a bare interpreter and in-child time of ``import curvop.cli``."""
    bare, imports = [], []
    probe = "import time; t = time.perf_counter(); import curvop.cli; print(time.perf_counter() - t)"
    out = workload.workdir / "startup"
    for _ in range(STARTUP_REPEATS):
        bare.append(workload.spawn([sys.executable, "-c", "pass"], out)[1])
        workload.spawn([sys.executable, "-c", probe], out)
        imports.append(float(out.read_text()))
    return {"cli.python_start_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def run(args) -> dict:
    from tracer import SETUP, Tracer
    from workloads import FUZZ_NS, WORKLOADS
    from yardstick import Scale

    work_base = ROOT / ".perfbench_work"
    work_base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_base))
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed, args.smoke)
        tracer = Tracer()
        setup = Scale(workload.setup_stick)
        with tracer.installed() if args.trace else contextlib.nullcontext():
            while len(setup.walls) < SETUP_MIN_REPEATS or sum(setup.walls) < SETUP_MIN_SECONDS:
                t0 = time.perf_counter()
                with tracer.span_request(SETUP):
                    workload.setup()
                setup.add(time.perf_counter() - t0)
                setup.probe()
            setup_times = setup.scaled()
            if args.trace:
                result, plain, traced = workload.traced(tracer, args.seconds)
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine_metadata(),
            "sizes": workload.sizes(), "setup_s_samples": setup_times,
            "setup_yardstick": {"name": workload.setup_stick.name,
                                "ref_s": workload.setup_stick.ref_s,
                                "wall_s": setup.walls, "probe_s": setup.probes},
        }
        if args.trace:
            metrics = tracer.layer_metrics(result.requests, len(setup_times))
            metrics.update({f"verify.fuzz.n{n}.ms_per_tensor": 0.0 for n in FUZZ_NS})
            metrics.update(result.layers)
            metrics.update(startup_floor(workload))
            metrics["trace.overhead_ratio"] = traced / plain
            spans = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans)
            details.update(traced_requests=result.requests, spans=len(tracer.names),
                           spans_file=str(spans.relative_to(ROOT)))
            units = {name: layer_unit(name) for name in metrics}
        else:
            result = workload.measure(args.seconds)
            tail_value, percentile, beyond = tail(
                result.latencies if workload.scaled_tail else result.walls)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "latency_p50_s": statistics.median(result.latencies),
                "latency_tail_s": tail_value,
                "tensors_per_s": result.tensors / sum(result.latencies),
                "peak_rss_mb": max(result.rss_kb) / 1024.0,
                "success_ratio": (result.attempted - result.failed) / result.attempted,
            }
            details.update(samples=len(result.latencies), tail_percentile=percentile,
                           tail_samples_beyond=beyond, tensors=result.tensors,
                           yardstick={"name": workload.stick.name, "ref_s": workload.stick.ref_s,
                                      "wall_p50_s": statistics.median(result.walls),
                                      "probe_p50_s": statistics.median(result.probes),
                                      "wall_s": result.walls, "probe_s": result.probes})
            units = E2E_UNITS
        details["problems"] = result.problems
        print(json.dumps({"details": details}))
        return {
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_base.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz", "bounds_large", "spectrum_large", "cli_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "curvop" / "__init__.py").is_file():
        print(f"error: no curvop sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.sched_setaffinity(0, CPUS[-1:])
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
