"""Span tracing from outside the package, and the per-layer metrics built from it.

The tracer replaces public functions with wrappers in every ``curvop.*``
namespace that binds them, plus ``numpy.einsum``, ``numpy.linalg.eigh``,
``numpy.linalg.eigvalsh``, ``json.loads`` and ``json.dumps``.  A wrapper
records a span (name, start, end, parent span, request id) only while a
request is active, so the benchmark's own parsing and checking stay out of
the trace.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from pathlib import Path

import numpy as np

CURVOP_MODULES = ("core", "operators", "weighted", "models", "verify")

# Per-layer time metrics: (span name, "incl" or "self"), in seconds per request.
LAYER_TIMES = {
    "cli.json_parse_s": ("json.loads", "incl"),
    "cli.render_s": ("json.dumps", "incl"),
    "cli.self_s": ("cli.main", "self"),
    "operators.operator_to_json_s": ("operators.operator_to_json", "incl"),
    "core.tensor_from_json_s": ("core.tensor_from_json", "incl"),
    "core.validate_symmetries_s": ("core.validate_symmetries", "incl"),
    "core.random_curvature_s": ("core.random_curvature", "incl"),
    "models.build_s": ("models.ModelSpec.build", "incl"),
    "operators.first_kind_matrix_s": ("operators.first_kind_matrix", "incl"),
    "operators.second_kind_matrix_s": ("operators.second_kind_matrix", "incl"),
    "operators.spectrum_s": ("operators.spectrum", "incl"),
    "weighted.greedy_min_s": ("weighted.greedy_min", "incl"),
    "verify.all_checks_s": ("verify.all_checks", "self"),
    "verify.einstein_certificate_s": ("verify.einstein_certificate", "self"),
    "kernel.einsum_s": ("kernel.einsum", "incl"),
    "kernel.eigh_s": ("kernel.eigh", "incl"),
    "kernel.eigvalsh_s": ("kernel.eigvalsh", "incl"),
}

# Per-layer call counts, per request.
LAYER_CALLS = {
    "core.validate_symmetries.calls": "core.validate_symmetries",
    "core.ricci.calls": "core.ricci",
    "operators.second_kind_matrix.calls_per_command": "operators.second_kind_matrix",
    "weighted.greedy_min.calls": "weighted.greedy_min",
    "kernel.einsum.calls": "kernel.einsum",
    "kernel.eigh.calls": "kernel.eigh",
}

SETUP = "setup"


class Tracer:
    """In-memory span store; one list per span field keeps the per-span cost low."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self._stack: list[int] = []
        self.request = None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.requests.append(tracer.request)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()

        return traced

    @contextlib.contextmanager
    def span_request(self, request):
        """Attribute every span opened inside the block to ``request``."""
        self.request = request
        try:
            yield
        finally:
            self.request = None

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in; restore every original binding on exit."""
        import curvop
        import curvop.cli
        from curvop.models import ModelSpec

        namespaces = [curvop, curvop.cli] + [getattr(curvop, m) for m in CURVOP_MODULES]
        patches = []  # (owner, attribute, original)
        for short in CURVOP_MODULES:
            module = getattr(curvop, short)
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrapper = self.wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        patches.append((ns, attr, obj))
                        setattr(ns, attr, wrapper)
        extra = [
            (ModelSpec, "build", "models.ModelSpec.build"),
            (curvop.cli, "main", "cli.main"),
            (np, "einsum", "kernel.einsum"),
            (np.linalg, "eigh", "kernel.eigh"),
            (np.linalg, "eigvalsh", "kernel.eigvalsh"),
            (json, "loads", "json.loads"),
            (json, "dumps", "json.dumps"),
        ]
        for owner, attr, name in extra:
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, path: Path):
        """Write every span as one JSON line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "request": self.requests[i],
                }) + "\n")

    def layer_metrics(self, per_request: float, setups: int) -> dict[str, float]:
        """Per-layer totals from the spans, divided by ``per_request`` requests.

        Inclusive time counts only the outermost span of a name, so a function
        that calls itself is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.  Set-up spans
        count only toward ``core.tensor_to_json_s`` (per set-up).
        """
        count = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(count)]
        child = [0.0] * count
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        setup_to_json = 0.0
        for i, name in enumerate(self.names):
            if self.requests[i] == SETUP:
                if name == "core.tensor_to_json" and self.parents[i] < 0:
                    setup_to_json += dur[i]
                continue
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + dur[i]
        out = {}
        for metric, (name, mode) in LAYER_TIMES.items():
            total = (incl if mode == "incl" else own).get(name, 0.0)
            out[metric] = total / per_request
        for metric, name in LAYER_CALLS.items():
            out[metric] = calls.get(name, 0) / per_request
        out["core.tensor_to_json_s"] = setup_to_json / setups
        return out
