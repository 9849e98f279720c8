"""Yardsticks: fixed computations timed between calls, to put times on a steady scale.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes, with load from outside the benchmark.  Such
drift moves every call of a run alike, so run medians spread far more than
the calls themselves differ.  A yardstick is a short computation that does
the same kind of work as a workload's calls (the same numpy, json and
interpreter paths) but does not touch curvop, so it slows with the host and
never with the program.  It is timed before the first call and after every
call (or every cycle of short calls); a call's wall time ``w`` is reported as

    w * ref_s / p

where ``p`` is the mean of the yardstick times just before and just after
the call (or its cycle), and ``ref_s`` is the yardstick's fixed time at the reference speed.
A slower program still reads slower; a slower host does not.  Each result's
details keep the raw wall times and the yardstick times.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

REPEATS = 3


def einsum_mix() -> None:
    """Small einsum contractions and eigensolves at n = 3..8, as in a fuzz trial."""
    rng = np.random.default_rng(12345)
    for n in (3, 4, 5, 6, 7, 8):
        H = rng.standard_normal((n, n))
        H = H + H.T
        K = np.eye(n)
        T = (np.einsum("ik,jl->ijkl", H, K) + np.einsum("jl,ik->ijkl", H, K)
             - np.einsum("il,jk->ijkl", H, K) - np.einsum("jk,il->ijkl", H, K))
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        B = np.zeros((len(pairs), n, n))
        for a, (i, j) in enumerate(pairs):
            B[a, i, j] = B[a, j, i] = 1.0
        acted = np.einsum("kijl,akl->aij", T, B, optimize=True)
        np.linalg.eigh(np.einsum("aij,bij->ab", acted, B, optimize=True))
        for _ in range(8):
            X = rng.standard_normal((n, n))
            np.einsum("kijl,kl,ij->", T, X, X, optimize=True)


_RENDERED = np.random.default_rng(6789).standard_normal((150, 150))


def render_mix() -> None:
    """Render a 150 x 150 matrix as JSON lists and eigensolve it."""
    json.dumps({"entries": _RENDERED.tolist(), "eigenvalues": np.linalg.eigvalsh(
        _RENDERED + _RENDERED.T).tolist()})


def cold_start() -> None:
    """A fresh interpreter that imports numpy and json."""
    subprocess.run([sys.executable, "-c", "import json, numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@dataclass(frozen=True)
class Yardstick:
    name: str
    run: Callable[[], None]
    ref_s: float  # seconds per run at the reference speed
    repeats: int = REPEATS

    def probe(self) -> float:
        """Median seconds of ``repeats`` runs."""
        times = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


# Reference times: about what each yardstick takes on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2, one OpenBLAS thread) when its host is quiet.
EINSUM = Yardstick("einsum_mix", einsum_mix, 0.005)
RENDER = Yardstick("render_mix", render_mix, 0.03)
COLD = Yardstick("cold_start", cold_start, 0.2, repeats=1)
STICKS = {stick.name: stick for stick in (EINSUM, RENDER, COLD)}


class Scale:
    """Wall times in groups, each group between two probes of one yardstick."""

    def __init__(self, stick: Yardstick):
        self.stick = stick
        self.groups: list[list[float]] = [[]]
        self.probes: list[float] = [stick.probe()]

    def add(self, wall: float) -> None:
        self.groups[-1].append(wall)

    def probe(self) -> None:
        """Close the current group with a probe of the yardstick."""
        self.probes.append(self.stick.probe())
        self.groups.append([])

    @property
    def walls(self) -> list[float]:
        return [w for group in self.groups for w in group]

    def scaled(self) -> list[float]:
        return scaled(self.groups, self.probes, self.stick.ref_s)


def scaled(groups: list[list[float]], probes: list[float], ref_s: float) -> list[float]:
    """Each wall time times ``ref_s`` over the mean of the two probes around its group.

    ``probes[g]`` is taken before ``groups[g]`` and ``probes[g + 1]`` after it;
    a last group with no probe after it must be empty.
    """
    if any(groups[len(probes) - 1:]):
        raise ValueError("every group of wall times needs a probe after it")
    return [w * 2.0 * ref_s / (probes[g] + probes[g + 1])
            for g, group in enumerate(groups[:len(probes) - 1]) for w in group]
