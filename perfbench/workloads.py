"""The four workloads: set-up from a seed, the untraced closed loop, and the traced run.

A workload's set-up turns the seed into the inputs the program receives and
the references its outputs are checked against.  The untraced run is one
client in a closed loop: each call starts after the previous one finished,
and whole cycles over the inputs run until ``seconds`` have passed.  Its
times are put on the scale of the workload's yardstick (``yardstick.py``).  The
traced run executes the same kind of calls in-process, alternating an
untraced and a traced pass over the inputs, so the two passes give the
tracing overhead and the traced pass gives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import curvop
import curvop.cli
from checks import check_bounds, check_cli, check_fuzz, check_spectrum, first_kind_gather
from tracer import Tracer
from yardstick import COLD, EINSUM, RENDER, Scale, scaled

CALL_TIMEOUT_S = 150.0
FUZZ_NS = (3, 4, 5, 6, 7, 8)
FUZZ_E_PER_TENSOR = 200
# Campaign times differ by a few percent between campaign seeds; a run cycles
# over several so that its median does not hang on one or two of them.
FUZZ_CAMPAIGNS = 4


def sizes(n: int) -> dict:
    """Computed (not measured) sizes of one tensor and its second-kind matrix."""
    N = curvop.s2_traceless_dim(n)
    return {"n": n, "N": N, "tensor_bytes": n**4 * 8, "matrix_bytes": N * N * 8,
            "label": "computed"}


@dataclass
class Result:
    """What a run measured and what its checks found."""

    latencies: list[float] = field(default_factory=list)  # scaled by the yardstick
    walls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    tensors: int = 0
    rss_kb: list[int] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    requests: int = 0  # traced requests: CLI commands, or tensors on fuzz
    layers: dict = field(default_factory=dict)

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    expected: int
    tensors: int


class Workload:
    """Shared machinery; subclasses define set-up, calls and checks."""

    name = ""
    stick = EINSUM  # yardstick of the calls
    setup_stick = EINSUM  # yardstick of the set-up
    probe_per_call = True  # else one probe per cycle over the calls
    # Whether latency_tail_s comes from scaled times.  Not on workloads of
    # few calls lasting seconds: probes a second or more from the slowest
    # call only add their own noise to it, while its raw time spread less
    # between runs.
    scaled_tail = True

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.regressions = workdir / "regressions"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["CURVOP_REGRESSION_DIR"] = str(self.regressions)
        self.env = env

    # --- set-up -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def sizes(self) -> list[dict]:
        raise NotImplementedError

    # --- processes ------------------------------------------------------------

    def spawn(self, cmd: list[str], stdout_path: Path) -> tuple[int, float, int]:
        """Run one child to completion; returns (exit code, wall seconds, peak RSS in KiB)."""
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def run_cli(self, argv) -> tuple[int, bytes, float, int]:
        path = self.workdir / "stdout"
        code, wall, rss = self.spawn([sys.executable, "-m", "curvop", *argv], path)
        return code, path.read_bytes(), wall, rss

    @staticmethod
    def run_inprocess(argv) -> tuple[int, bytes]:
        """``curvop.cli.main(argv)`` with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = curvop.cli.main(list(argv))
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 2
        return code, out.getvalue().encode()

    # --- CLI workloads ----------------------------------------------------------

    calls: list[CliCall]

    def check(self, call: CliCall, code: int, stdout: bytes) -> list[str]:
        raise NotImplementedError

    def measure(self, seconds: float) -> Result:
        result = Result()
        scale = Scale(self.stick)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for call in self.calls:
                code, stdout, wall, rss = self.run_cli(call.argv)
                scale.add(wall)
                if self.probe_per_call:
                    scale.probe()
                result.rss_kb.append(rss)
                result.tensors += call.tensors if code == call.expected else 0
                result.record(self.check(call, code, stdout))
            if not self.probe_per_call:
                scale.probe()
        result.latencies, result.walls, result.probes = scale.scaled(), scale.walls, scale.probes
        return result

    def traced(self, tracer: Tracer, seconds: float) -> tuple[Result, float, float]:
        """Returns (result, untraced seconds, traced seconds) over the same calls."""
        result = Result()
        for call in self.calls:  # warm-up: fills in-process caches
            result.record(self.check(call, *self.run_inprocess(call.argv)))
        plain = traced = 0.0
        requests = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for call in self.calls:
                t0 = time.perf_counter()
                outcome = self.run_inprocess(call.argv)
                plain += time.perf_counter() - t0
                result.record(self.check(call, *outcome))
            for call in self.calls:
                t0 = time.perf_counter()
                with tracer.span_request(requests):
                    outcome = self.run_inprocess(call.argv)
                traced += time.perf_counter() - t0
                requests += 1
                result.record(self.check(call, *outcome))
        result.requests = requests
        return result, plain, traced


class BoundsLarge(Workload):
    """``curvop bounds --input FILE`` on a seeded n=40 tensor file."""

    name = "bounds_large"
    scaled_tail = False

    def setup(self) -> None:
        n = 6 if self.smoke else 40
        T = curvop.random_curvature(self.seed, n, terms=3)
        path = self.workdir / "tensor.json"
        path.write_text(json.dumps(curvop.tensor_to_json(T)))
        self.reference = [
            {"name": r.name, "margin": r.margin, "lhs": r.lhs, "rhs": r.rhs}
            for r in curvop.all_checks(T)
        ]
        self.n = n
        self.calls = [CliCall(("bounds", "--input", str(path), "--format", "json",
                               "--no-timestamp"), 0, 1)]
        self.earlier: bytes | None = None

    def sizes(self) -> list[dict]:
        return [sizes(self.n)]

    def check(self, call, code, stdout):
        problems = check_bounds(code, stdout, self.reference, self.earlier)
        if self.earlier is None and not problems:
            self.earlier = stdout
        return problems


class SpectrumLarge(Workload):
    """``curvop spectrum --matrices`` on CP^16 (n=32), about 7.9 MB of JSON output."""

    name = "spectrum_large"
    stick = RENDER
    scaled_tail = False

    def setup(self) -> None:
        # The model has no free parameter at this size, so the input does not
        # depend on the seed.
        m = 3 if self.smoke else 16
        model = {"model": "fubini_study", "m": m}
        T = curvop.model_from_json(model).build()
        self.n = T.n
        self.expected_first = first_kind_gather(T.components)
        self.calls = [CliCall(("spectrum", "--model", json.dumps(model), "--matrices",
                               "--format", "json", "--no-timestamp"), 0, 1)]
        self.verified: dict[str, list[str]] = {}

    def sizes(self) -> list[dict]:
        return [dict(sizes(self.n), first_kind_N=curvop.lambda2_dim(self.n))]

    def check(self, call, code, stdout):
        # The full check parses 7.9 MB and runs two eigensolves; an output
        # already checked is recognised by its digest.
        key = f"{code}:{hashlib.sha256(stdout).hexdigest()}"
        if key not in self.verified:
            self.verified[key] = check_spectrum(
                code, stdout, self.expected_first, curvop.s2_traceless_dim(self.n))
        return self.verified[key]


class CliSmall(Workload):
    """Fresh ``curvop`` processes on S^4 and S^2 x S^3: the cold-start mix."""

    name = "cli_small"
    stick = COLD
    probe_per_call = False  # a probe costs about as much as a call

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        kappa, r1, r2 = (float(x) for x in rng.uniform(0.5, 2.0, size=3))
        sphere = json.dumps({"model": "constant_curvature", "n": 4, "kappa": kappa})
        product = json.dumps({"model": "product_spheres", "p": 2, "q": 3, "r1": r1, "r2": r2})
        dim = int(rng.integers(3, 25))
        out = ("--format", "json", "--no-timestamp")
        self.calls = [
            CliCall(("spectrum", "--model", sphere, *out), 0, 1),
            CliCall(("check", "--model", sphere, "--k", "2.0", *out), 0, 1),
            CliCall(("bounds", "--model", product, *out), 0, 1),
            CliCall(("threshold", "--n", str(dim), *out), 0, 0),
            CliCall(("models", *out), 0, 0),
            CliCall(("check", "--model", product, "--k", "1.0", *out), 1, 1),
            CliCall(("check", "--model", sphere, "--k", "99", *out), 2, 0),
        ]
        # References from an in-process run; the exit codes are checked
        # against the contract, not taken from this run.
        self.reference = {call: self.run_inprocess(call.argv)[1] for call in self.calls}

    def sizes(self) -> list[dict]:
        return [sizes(4), sizes(5)]

    def check(self, call, code, stdout):
        return check_cli(code, stdout, call.expected, self.reference[call])


@dataclass(frozen=True)
class Campaign:
    seed: int
    trials_per_n: int
    ns: tuple[int, ...]

    @property
    def tensors(self) -> int:
        return self.trials_per_n * len(self.ns)


class Fuzz(Workload):
    """In-process ``fuzz_campaign`` at the acceptance-gate shape, jobs=1."""

    name = "fuzz"

    def setup(self) -> None:
        trials = 1 if self.smoke else 25
        seeds = np.random.SeedSequence(self.seed).generate_state(FUZZ_CAMPAIGNS)
        self.campaigns = [Campaign(int(s), trials, FUZZ_NS) for s in seeds]
        self.reference = {c: self.run_campaign(c)[1] for c in self.campaigns}

    def sizes(self) -> list[dict]:
        return [sizes(n) for n in FUZZ_NS]

    def run_campaign(self, c: Campaign, tracer: Tracer | None = None, request=None) -> tuple[float, str]:
        """(seconds, sorted-key JSON report) of one campaign, traced under ``request`` if given."""
        with tracer.span_request(request) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            summary = curvop.fuzz_campaign(
                c.seed, c.trials_per_n, ns=c.ns, e_per_tensor=FUZZ_E_PER_TENSOR, jobs=1,
                regression_dir=self.regressions)
            wall = time.perf_counter() - t0
        return wall, json.dumps(summary.to_json(), sort_keys=True)

    def measure(self, seconds: float) -> Result:
        plan = self.workdir / "fuzz_plan.json"
        plan.write_text(json.dumps({
            "seconds": seconds, "e_per_tensor": FUZZ_E_PER_TENSOR, "yardstick": self.stick.name,
            "regression_dir": str(self.regressions),
            "campaigns": [[c.seed, c.trials_per_n, list(c.ns)] for c in self.campaigns],
        }))
        records_path = self.workdir / "fuzz_records.json"
        worker = Path(__file__).with_name("fuzz_worker.py")
        code, _, rss = self.spawn([sys.executable, str(worker), str(plan), str(records_path)],
                                  self.workdir / "stdout")
        if code != 0:
            raise RuntimeError(f"fuzz worker exited {code}: "
                               f"{(self.workdir / 'stderr').read_text()[-2000:]}")
        out = json.loads(records_path.read_text())
        records = out["records"]
        result = Result(rss_kb=[rss], walls=[rec["latency"] for rec in records],
                        probes=out["probes"])
        result.latencies = scaled([[w] for w in result.walls], result.probes, self.stick.ref_s)
        for rec in records:
            c = self.campaigns[rec["index"]]
            problems = check_fuzz(rec, c.tensors, self.reference[c])
            result.tensors += c.tensors if not problems else 0
            result.record(problems)
        return result

    def traced(self, tracer: Tracer, seconds: float) -> tuple[Result, float, float]:
        """Per-dimension campaigns, so each n gets its own time per tensor."""
        per_n = [Campaign(c.seed, c.trials_per_n, (n,)) for c in self.campaigns for n in FUZZ_NS]
        result = Result()
        reference = {c: self.run_campaign(c)[1] for c in per_n}  # warm-up
        plain = traced = 0.0
        tensors = 0
        ms_total = dict.fromkeys(FUZZ_NS, 0.0)
        count = dict.fromkeys(FUZZ_NS, 0)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for c in per_n:
                wall, text = self.run_campaign(c)
                plain += wall
                ms_total[c.ns[0]] += 1e3 * wall
                count[c.ns[0]] += c.tensors
                result.record(check_fuzz({"text": text}, c.tensors, reference[c]))
            for i, c in enumerate(per_n):
                wall, text = self.run_campaign(c, tracer, i)
                traced += wall
                tensors += c.tensors
                result.record(check_fuzz({"text": text}, c.tensors, reference[c]))
        result.requests = tensors
        for n in FUZZ_NS:
            result.layers[f"verify.fuzz.n{n}.ms_per_tensor"] = ms_total[n] / count[n]
        return result, plain, traced


WORKLOADS = {cls.name: cls for cls in (Fuzz, BoundsLarge, SpectrumLarge, CliSmall)}

