"""Spectral lower bounds on curvature quantities, and Einstein certificates.

Every check here bounds a curvature quantity of a tensor T from below
by a capped-simplex minimum over the spectrum lam of T's second-kind
operator, written [O, S] for the class with cap O and total S:

* scalar_lower_bound:    s  >=  (2n/(n+2)) * [1, (n-1)(n+2)/2]
* ricci_lower_bound:     min Ric  >=  ((n-1)/(n+1)) * [1, n] + s/(n(n+1))
* ricci_combined_bound:  min Ric  >=  [n/(n+2), n-1]
* quadform_lower_bound:  <op(E), E>  >=  [1, 1] * |E|^2
* bochner_lower_bound:   <op(E), E> + Ric_ij E_it E_jt  >=  [2(n+1)/(n+2), n] * |E|^2

for trace-free symmetric E.  Margins are lhs - rhs; a check "holds"
when the margin clears a tolerance scaled to the size of the inputs.
The round sphere saturates all five with margin zero, and the scalar
bound is in fact an identity for every tensor (its class pins all
weights to the cap), which the test suite uses as a calibration.

``all_checks`` is the one entry point for the five bounds.  It and the
fuzz campaign share a single kernel that evaluates all five over a
stack of tensors of one dimension, each with a stack of probes E, so
each weight class and each bound formula is written down once;
``all_checks`` is its one-tensor case.

The Einstein certificate evaluates the spectrum against two thresholds:

* einstein_threshold      k = n(n+2)/(2(n+1)): k-nonnegativity forces a
  compact manifold with harmonic curvature to be Einstein;
* constant_curvature_threshold  min(einstein, max(4, floor((n+2)/4))):
  k-nonnegativity at this level forces constant sectional curvature.

A fuzz campaign hammers the five bounds with seeded random tensors and
batches of random unit trace-free tensors, run through the kernel in
blocks of one dimension, recording worst margins and persisting any
violator for regression replay.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    CurvatureTensor,
    CurvopError,
    Sym2Tensor,
    TracelessSym2,
    _alternating_kn,
    _fingerprint,
    _json_text,
    _norm_inf,
    _random_terms,
    _require_finite,
    _require_valid_stack,
    _trace_free,
    random_curvature,
    tensor_to_json,
)
from .operators import (
    _second_kind_entries,
    _spectra,
    _symmetric,
    coordinates,
    s2_traceless_dim,
    second_kind_matrix,
)
from .weighted import WeightClass, KVerdict, _greedy_min, k_verdict

__all__ = [
    "TOL_INEQ",
    "CHECK_NAMES",
    "ConsistencyError",
    "InequalityReport",
    "all_checks",
    "ThresholdProfile",
    "threshold_profile",
    "EinsteinCertificate",
    "einstein_certificate",
    "Violation",
    "FuzzSummary",
    "fuzz_campaign",
    "persist_violator",
    "REGRESSION_DIR_ENV",
]

#: Base absolute tolerance for inequality margins, before input scaling.
TOL_INEQ = 1e-9

#: Relative tolerance of the Einstein test in the certificate.
_EINSTEIN_TOL = 1e-9

#: Environment variable naming the directory for persisted violators.
REGRESSION_DIR_ENV = "CURVOP_REGRESSION_DIR"

CHECK_NAMES = (
    "scalar_lower_bound",
    "ricci_lower_bound",
    "ricci_combined_bound",
    "quadform_lower_bound",
    "bochner_lower_bound",
)


class ConsistencyError(CurvopError):
    """Two supposedly equivalent computations of one quantity disagree."""


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one lower-bound check.

    ``margin`` is lhs - rhs.  The verdict is a trichotomy against the
    effective tolerance: "violated" (margin < -tol), "boundary"
    (|margin| <= tol), "holds" (margin > tol).  ``ok`` is True unless
    violated, and is what exit codes and assertions consume.
    """

    name: str
    n: int
    lhs: float
    rhs: float
    margin: float
    verdict: str
    tol: float
    fingerprint: str
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.verdict != "violated"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict,
            "n": self.n,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "tol": self.tol,
        }


def _verdict(margin: float, tol: float) -> str:
    if margin < -tol:
        return "violated"
    if margin <= tol:
        return "boundary"
    return "holds"


def _report(name, n, lhs, rhs, tol, fingerprint, seed) -> InequalityReport:
    margin = lhs - rhs
    return InequalityReport(
        name=name,
        n=n,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        verdict=_verdict(margin, tol),
        tol=float(tol),
        fingerprint=fingerprint,
        seed=seed,
    )


class _Prep:
    """Shared context of a stack of B tensors of one dimension n.

    A batch of checks assembles and eigensolves once.  Every array has
    the leading axis B; ``T`` is the tensor when the stack is the one
    tensor of :func:`_prepare`.
    """

    def __init__(self, R: np.ndarray, matrix: np.ndarray, T: CurvatureTensor | None = None):
        self.T = T
        self.n = R.shape[-1]
        self.R = R
        self.matrix = matrix
        eigvals, self.eigvecs = np.linalg.eigh(matrix)
        self.lam = _spectra(eigvals)
        ric = np.einsum("...kikj->...ij", R)
        self.ric = (ric + np.swapaxes(ric, -1, -2)) / 2.0
        self.ric_eigs = np.linalg.eigvalsh(self.ric)
        self.s = np.trace(self.ric, axis1=-2, axis2=-1)
        self.scale = np.maximum(1.0, _norm_inf(R))

    @cached_property
    def traceless_ricci(self) -> TracelessSym2:
        """The trace-free Ricci tensor of the one tensor of :func:`_prepare`."""
        return _trace_free(self.ric[0])


def _prepare(T: CurvatureTensor) -> _Prep:
    """The context of one validated tensor, a stack with B = 1."""
    T.require_valid()
    if T.n < 3:
        raise ValueError("curvature bounds require n >= 3")
    return _Prep(T.components[None], second_kind_matrix(T).entries[None], T)


def _prepare_stack(R: np.ndarray) -> _Prep:
    """The context of a stack (B, n, n, n, n), each tensor checked as :func:`_prepare` checks it."""
    _require_valid_stack(R)
    return _Prep(R, _symmetric(_second_kind_entries(R), stacked=True))


def _weight_classes(n: int) -> dict[str, WeightClass]:
    """The weight class [cap, total] of each check, keyed by check name."""
    return {
        "scalar_lower_bound": WeightClass(1.0, float(s2_traceless_dim(n))),
        "ricci_lower_bound": WeightClass(1.0, float(n)),
        "ricci_combined_bound": WeightClass(n / (n + 2.0), n - 1.0),
        "quadform_lower_bound": WeightClass(1.0, 1.0),
        "bochner_lower_bound": WeightClass(2.0 * (n + 1.0) / (n + 2.0), float(n)),
    }


def _evaluate(prep: _Prep, Eb: np.ndarray, tol_base: float):
    """All five checks over a stack Eb of shape (B, P, n, n): P trace-free probes per tensor.

    Returns ``(checks, quad_rel, eig_rel)``.  ``checks`` maps each name
    in CHECK_NAMES to (lhs, rhs, tol): shape (B,) for the three E-free
    checks, (B, P) for the two E-dependent ones.  The quadratic form is
    computed three ways, by index contraction, through the matrix, and
    through the eigen decomposition; ``quad_rel`` and ``eig_rel``, of
    shape (B,), are the worst relative disagreements of the last two
    with the first.
    """
    n, lam, s = prep.n, prep.lam, prep.s
    g = {name: _greedy_min(lam, cls) for name, cls in _weight_classes(n).items()}
    ric_min = prep.ric_eigs[:, 0]
    tol = tol_base * prep.scale

    # The index contraction sum R[k,i,j,l] E[k,l] E[i,j] as e^T S e, with
    # e = E flattened and S[(k,l),(i,j)] = R[k,i,j,l].
    B, P = Eb.shape[:2]
    e = Eb.reshape(B, P, n * n)
    S = np.transpose(prep.R, (0, 1, 4, 2, 3)).reshape(B, n * n, n * n)
    q_idx = np.einsum("...i,...i->...", e @ S, e)
    nsq = np.sum(Eb * Eb, axis=(-2, -1))
    nsq_floor = np.maximum(1.0, nsq)
    # sum Ric[i,j] E[i,t] E[j,t]
    ric_term = np.einsum("...ij,...ij->...", prep.ric[:, None] @ Eb, Eb)
    C = coordinates(Eb)
    q_mat = np.einsum("...i,...i->...", C @ prep.matrix, C)
    W = C @ prep.eigvecs
    W *= W
    q_eig = (W @ lam[:, :, None])[..., 0]
    denom = np.maximum(np.maximum(1.0, np.abs(q_idx)), prep.scale[:, None] * nsq_floor)
    quad_rel = np.max(np.abs(q_idx - q_mat) / denom, axis=-1)
    eig_rel = np.max(np.abs(q_idx - q_eig) / denom, axis=-1)

    tol_e = tol[:, None] * nsq_floor
    checks = {
        "scalar_lower_bound": (s, (2.0 * n / (n + 2.0)) * g["scalar_lower_bound"], tol),
        "ricci_lower_bound": (
            ric_min,
            ((n - 1.0) / (n + 1.0)) * g["ricci_lower_bound"] + s / (n * (n + 1.0)),
            tol,
        ),
        "ricci_combined_bound": (ric_min, g["ricci_combined_bound"], tol),
        "quadform_lower_bound": (q_idx, g["quadform_lower_bound"][:, None] * nsq, tol_e),
        "bochner_lower_bound": (
            q_idx + ric_term, g["bochner_lower_bound"][:, None] * nsq, tol_e,
        ),
    }
    return checks, quad_rel, eig_rel


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _checks(prep: _Prep, E, tol, seed) -> tuple[InequalityReport, ...]:
    """The body of :func:`all_checks` on an already prepared tensor."""
    with np.errstate(over="ignore", invalid="ignore"):
        if E is None:
            E = prep.traceless_ricci
        if isinstance(E, Sym2Tensor):
            E = E.components
        Eb = TracelessSym2(prep.n, E).components[None, None]
        tol_base = _check_tol(TOL_INEQ if tol is None else tol)
        checks, quad_rel, eig_rel = _evaluate(prep, Eb, tol_base)
        reports = []
        for name in CHECK_NAMES:
            lhs, rhs, eff = (np.ravel(x)[0] for x in checks[name])
            reports.append(_report(name, prep.n, lhs, rhs, eff, prep.T.fingerprint, seed))
    rels = {"matrix": float(quad_rel[0]), "eigen": float(eig_rel[0])}
    _require_finite({
        **{f"{r.name} {field}": getattr(r, field)
           for r in reports for field in ("lhs", "rhs", "margin", "tol")},
        **{f"quadratic form error (index vs {label})": rel for label, rel in rels.items()},
    })
    for label, rel in rels.items():
        if rel > 1e-9:
            raise ConsistencyError(
                f"quadratic form paths disagree (index vs {label}): relative {rel:.3e}"
            )
    return tuple(reports)


def all_checks(T, E=None, tol=None, seed=None) -> tuple[InequalityReport, ...]:
    """The five checks, in CHECK_NAMES order.  E defaults to the trace-free Ricci.

    This is the one entry point for the bounds.  With an Einstein tensor
    the default E vanishes and the two E-dependent checks sit exactly on
    the boundary.  Raises :class:`ValueError` unless ``tol`` is None or
    a finite number >= 0, :class:`ConsistencyError` when the three
    quadratic-form paths disagree beyond 1e-9 relative, and
    :class:`CurvopError` when a value it would report is not finite.
    """
    return _checks(_prepare(T), E, tol, seed)


# --- thresholds and certificates --------------------------------------------


@dataclass(frozen=True)
class ThresholdProfile:
    """Dimension-dependent k-nonnegativity thresholds.

    ``branch`` records which regime the constant-curvature threshold came
    from: "i" (n <= 7, equals the Einstein threshold), "ii" (8 <= n <= 13,
    equals 4), "iii" (n >= 14, equals floor((n+2)/4)).
    """

    n: int
    einstein_threshold: float
    constant_curvature_threshold: float
    branch: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "einstein_threshold": self.einstein_threshold,
            "constant_curvature_threshold": self.constant_curvature_threshold,
            "branch": self.branch,
        }


def threshold_profile(n: int) -> ThresholdProfile:
    """Evaluate both thresholds at dimension n >= 3.

    The constant-curvature threshold is min(einstein, max(4, floor((n+2)/4)));
    the three branches of the piecewise form are labelled by n-range.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 3:
        raise ValueError(f"thresholds are defined for integer n >= 3, got {n!r}")
    n = int(n)
    einstein = n * (n + 2.0) / (2.0 * (n + 1.0))
    if n <= 7:
        cc, branch = einstein, "i"
    elif n <= 13:
        cc, branch = 4.0, "ii"
    else:
        cc, branch = float((n + 2) // 4), "iii"
    return ThresholdProfile(
        n=n,
        einstein_threshold=einstein,
        constant_curvature_threshold=cc,
        branch=branch,
    )


@dataclass(frozen=True)
class EinsteinCertificate:
    """Spectral thresholds evaluated on one tensor, with conclusions.

    ``impossible`` flags the contradictory combination of a spectrum
    passing the Einstein threshold on a tensor that is itself not
    Einstein: no compact manifold with harmonic curvature can carry
    that tensor at every point.
    """

    n: int
    fingerprint: str
    profile: ThresholdProfile
    einstein_verdict: KVerdict
    constant_curvature_verdict: KVerdict
    traceless_ricci_norm: float
    is_einstein: bool
    impossible: bool
    conclusions: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "fingerprint": self.fingerprint,
            "thresholds": self.profile.to_json(),
            "einstein_verdict": self.einstein_verdict.to_json(),
            "constant_curvature_verdict": self.constant_curvature_verdict.to_json(),
            "traceless_ricci_norm": self.traceless_ricci_norm,
            "is_einstein": self.is_einstein,
            "impossible": self.impossible,
            "conclusions": list(self.conclusions),
        }


def einstein_certificate(T) -> EinsteinCertificate:
    """Test a tensor's second-kind spectrum against both thresholds.

    ``is_einstein`` means the trace-free Ricci norm is below
    1e-9 * (1 + |Ric|_F).  Conclusions are plain-language statements of
    what the verdicts imply for a compact manifold with harmonic
    curvature whose curvature tensor equals T at every point.  Raises
    :class:`CurvopError` when a k-sum or a norm is not finite.
    """
    return _certificate(_prepare(T))


def _certificate(prep: _Prep) -> EinsteinCertificate:
    """The body of :func:`einstein_certificate` on an already prepared tensor."""
    profile = threshold_profile(prep.n)
    with np.errstate(over="ignore", invalid="ignore"):
        kv_e = k_verdict(prep.lam[0], profile.einstein_threshold)
        kv_c = k_verdict(prep.lam[0], profile.constant_curvature_threshold)
        e_norm = prep.traceless_ricci.frobenius()
        ric_norm = float(np.linalg.norm(prep.ric[0]))
    _require_finite({
        "einstein threshold k-sum": kv_e.value,
        "constant curvature threshold k-sum": kv_c.value,
        "traceless Ricci norm": e_norm,
        "Ricci norm": ric_norm,
    })
    is_einstein = e_norm <= _EINSTEIN_TOL * (1.0 + ric_norm)

    conclusions = []
    if kv_e.nonnegative:
        conclusions.append(
            f"spectrum is {profile.einstein_threshold:.6g}-nonnegative: a compact "
            "manifold with harmonic curvature carrying this curvature tensor at "
            "every point is Einstein"
        )
    else:
        conclusions.append(
            f"spectrum is not {profile.einstein_threshold:.6g}-nonnegative: the "
            "Einstein conclusion does not apply"
        )
    if kv_c.nonnegative:
        conclusions.append(
            f"spectrum is {profile.constant_curvature_threshold:.6g}-nonnegative: "
            "a compact manifold with harmonic curvature carrying this curvature "
            "tensor at every point has constant sectional curvature"
        )
    impossible = kv_e.nonnegative and not is_einstein
    if impossible:
        conclusions.append(
            "inconsistency: the spectrum passes the Einstein threshold but the "
            "tensor is not Einstein, so no compact manifold with harmonic "
            "curvature realizes this tensor at every point"
        )
    if kv_e.boundary or kv_c.boundary:
        conclusions.append(
            "a threshold sum sits within 1e-12 of zero; strict positivity "
            "statements are not numerically decidable here"
        )
    return EinsteinCertificate(
        n=prep.n,
        fingerprint=prep.T.fingerprint,
        profile=profile,
        einstein_verdict=kv_e,
        constant_curvature_verdict=kv_c,
        traceless_ricci_norm=e_norm,
        is_einstein=is_einstein,
        impossible=impossible,
        conclusions=tuple(conclusions),
    )


# --- fuzz campaign -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One failed inequality found by fuzzing, with replay provenance."""

    check: str
    n: int
    trial_index: int
    trial_seed: int
    terms: int
    margin: float
    tol: float
    fingerprint: str
    path: str | None = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "trial_index": self.trial_index,
            "trial_seed": self.trial_seed,
            "terms": self.terms,
            "margin": self.margin,
            "tol": self.tol,
            "fingerprint": self.fingerprint,
            "path": self.path,
        }


@dataclass(frozen=True, eq=False)
class FuzzSummary:
    """Aggregate outcome of a fuzz campaign.

    ``min_scaled_margins`` maps check name to the worst margin divided
    by its tensor's scale factor, directly comparable to the -tol
    threshold.  ``max_quad_dual_rel`` / ``max_eig_dual_rel`` are the
    worst relative disagreements between the index-contraction
    quadratic form and the matrix / eigen-decomposition paths.
    ``elapsed`` (seconds) is informational and excluded from to_json so
    reports stay byte-deterministic.
    """

    seed: int
    trials_per_n: int
    ns: tuple[int, ...]
    e_per_tensor: int
    tensors: int
    tol: float
    min_scaled_margins: dict
    max_quad_dual_rel: float
    max_eig_dual_rel: float
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials_per_n": self.trials_per_n,
            "ns": list(self.ns),
            "e_per_tensor": self.e_per_tensor,
            "tensors": self.tensors,
            "tol": self.tol,
            "min_scaled_margins": dict(self.min_scaled_margins),
            "max_quad_dual_rel": self.max_quad_dual_rel,
            "max_eig_dual_rel": self.max_eig_dual_rel,
            "violations": [v.to_json() for v in self.violations],
            "ok": self.ok,
        }


#: A fuzz block holds at most this many trials, all of one dimension n ...
_BLOCK_TRIALS = 32

#: ... and at most this many bytes of probe entries, B * P * n^2 * 8, though
#: always one trial.  The kernel's temporaries come to about three times
#: this, so it bounds the memory a campaign adds to the process.
_BLOCK_PROBE_BYTES = 1 << 19


def _blocks(ns, trials_per_n: int, e_per_tensor: int) -> list[tuple[int, int, int]]:
    """(n, first trial index, trial count) of each block, in trial order.

    The boundaries depend on nothing but the arguments, so a campaign
    runs the same blocks whatever the number of jobs.
    """
    blocks, start = [], 0
    for n in ns:
        size = _BLOCK_PROBE_BYTES // (e_per_tensor * n * n * 8)
        size = max(1, min(_BLOCK_TRIALS, size))
        for offset in range(0, trials_per_n, size):
            blocks.append((n, start + offset, min(size, trials_per_n - offset)))
        start += trials_per_n
    return blocks


def _trial_seed(seed: int, idx: int) -> int:
    """The 64-bit seed of trial ``idx``, from SeedSequence([seed, idx]).

    Streams of different campaign seeds are independent;
    ``random_curvature(trial_seed, n, terms)`` replays the trial's tensor.
    """
    return int(np.random.SeedSequence([seed, idx]).generate_state(1, np.uint64)[0])


def _block_draws(seed: int, n: int, start: int, count: int, e_per_tensor: int):
    """The tensors and unit probes of trials start .. start + count - 1.

    Returns ``(trial_seeds, terms, R, Eb)``, with R of shape (count, n,
    n, n, n) and Eb of shape (count, e_per_tensor, n, n).  Trial t draws
    its tensor as ``random_curvature(trial_seed, n, terms)`` does, with
    1 + t % 3 terms, and its probes from the stream [trial_seed, 1].
    """
    idx = range(start, start + count)
    trial_seeds = [_trial_seed(seed, t) for t in idx]
    terms = [1 + t % 3 for t in idx]
    h = np.zeros((count, 3, n, n))
    # Each probe is raw + raw^T with its trace removed, scaled to unit norm.
    # (That is twice the symmetric part, a factor that cancels exactly.)
    Eb = np.empty((count, e_per_tensor, n, n))
    for b, (trial_seed, m) in enumerate(zip(trial_seeds, terms)):
        h[b, :m] = _random_terms(np.random.default_rng(trial_seed), n, m)
        raw = np.random.default_rng([trial_seed, 1]).normal(size=(e_per_tensor, n, n))
        np.add(raw, np.swapaxes(raw, -1, -2), out=Eb[b])
    R = _alternating_kn(h)
    R += 0.0  # canonicalize -0.0, as CurvatureTensor does

    diag = Eb.reshape(count, e_per_tensor, n * n)[..., :: n + 1]
    diag -= diag.sum(axis=-1, keepdims=True) * (1.0 / n)
    Eb /= np.sqrt(np.einsum("...ij,...ij->...", Eb, Eb))[..., None, None]
    return trial_seeds, terms, R, Eb


def _fuzz_block(args) -> dict:
    """Run one block of trials through all five checks in one kernel call.

    ``args`` is (seed, block, e_per_tensor, tol_base), with a block from
    :func:`_blocks`.

    Returns per-trial arrays: for each check the worst margin over the
    probes and the tolerance at that probe, the scale, both dual-path
    disagreements; and the block's violations, in trial order.
    """
    seed, (n, start, count), e_per_tensor, tol_base = args
    trial_seeds, terms, R, Eb = _block_draws(seed, n, start, count, e_per_tensor)
    prep = _prepare_stack(R)
    checks, quad_rel, eig_rel = _evaluate(prep, Eb, tol_base)
    margins, tols = {}, {}
    for name, (lhs, rhs, tol) in checks.items():
        margin = lhs - rhs
        if margin.ndim == 2:
            worst = margin.argmin(axis=1)[:, None]
            margin = np.take_along_axis(margin, worst, axis=1)[:, 0]
            tol = np.take_along_axis(tol, worst, axis=1)[:, 0]
        margins[name], tols[name] = margin, tol

    violations = []
    failed = np.array([margins[name] < -tols[name] for name in CHECK_NAMES])
    for b, c in np.argwhere(failed.T).tolist():
        name = CHECK_NAMES[c]
        violations.append(Violation(
            check=name,
            n=n,
            trial_index=start + b,
            trial_seed=trial_seeds[b],
            terms=terms[b],
            margin=float(margins[name][b]),
            tol=float(tols[name][b]),
            fingerprint=_fingerprint(R[b]),
        ))
    return {
        "scale": prep.scale,
        "margins": margins,
        "tols": tols,
        "quad_rel": quad_rel,
        "eig_rel": eig_rel,
        "violations": violations,
    }


def persist_violator(T: CurvatureTensor, directory, meta: dict | None = None) -> Path:
    """Write a violating tensor (plus metadata) for regression replay.

    The file holds the full entry-list serialization, so
    ``curvop bounds --input FILE`` reproduces the reported margins.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = tensor_to_json(T)
    if meta:
        doc = {"meta": meta, **doc}
    path = directory / f"violator_{T.fingerprint}.json"
    path.write_text(_json_text(doc))
    return path


def fuzz_campaign(
    seed: int,
    trials_per_n: int,
    ns: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
    e_per_tensor: int = 20,
    tol: float = TOL_INEQ,
    jobs: int = 1,
    regression_dir=None,
) -> FuzzSummary:
    """Randomized sweep of all five bounds over seeded curvature tensors.

    Trial t (counted across ``ns`` in order) draws its tensor and probes
    from its own RNG stream, seeded by SeedSequence([seed, t]); its
    ``trial_seed`` replays the tensor through ``random_curvature``.  The
    trials of each n run in blocks of at most 32 through one batched
    kernel, and ``jobs`` > 1 hands whole blocks to worker processes.
    The blocks do not depend on ``jobs``, so the report is identical
    for jobs=1 and jobs>1.  Violators (margin below -tol * scale) are
    persisted to ``regression_dir``, the CURVOP_REGRESSION_DIR
    environment variable, or ./regressions, in that order of
    preference.  ``tol`` must be a finite number >= 0, and ``jobs`` an
    integer >= 1, capped at the CPU count and the number of blocks.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if trials_per_n < 1:
        raise ValueError("trials_per_n must be >= 1")
    if e_per_tensor < 1:
        raise ValueError("e_per_tensor must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _check_tol(tol)
    ns = tuple(int(n) for n in ns)
    if any(n < 3 for n in ns):
        raise ValueError("fuzz dimensions must satisfy n >= 3")
    start = time.perf_counter()

    blocks = _blocks(ns, trials_per_n, e_per_tensor)
    # A fork-started pool starts every worker at once, even for empty chunks.
    jobs = min(jobs, os.cpu_count() or 1, len(blocks))
    tasks = [(seed, block, e_per_tensor, tol) for block in blocks]
    if jobs <= 1:
        results = list(map(_fuzz_block, tasks))
    else:
        # Imported only here: the pool pulls in multiprocessing, which every
        # other command would otherwise load at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fuzz_block, tasks))

    min_scaled = {
        name: float(min((np.min(r["margins"][name] / r["scale"]) for r in results),
                        default=np.inf))
        for name in CHECK_NAMES
    }
    max_quad_rel = float(max((np.max(r["quad_rel"]) for r in results), default=0.0))
    max_eig_rel = float(max((np.max(r["eig_rel"]) for r in results), default=0.0))
    violations = [v for r in results for v in r["violations"]]

    if violations:
        directory = (
            regression_dir
            or os.environ.get(REGRESSION_DIR_ENV)
            or "regressions"
        )
        persisted = []
        for v in violations:
            T = random_curvature(v.trial_seed, v.n, terms=v.terms)
            path = persist_violator(
                T,
                directory,
                meta={
                    "check": v.check,
                    "margin": v.margin,
                    "tol": v.tol,
                    "seed": seed,
                    "trial_index": v.trial_index,
                },
            )
            persisted.append(dataclasses.replace(v, path=str(path)))
        violations = persisted

    return FuzzSummary(
        seed=seed,
        trials_per_n=trials_per_n,
        ns=ns,
        e_per_tensor=e_per_tensor,
        tensors=trials_per_n * len(ns),
        tol=tol,
        min_scaled_margins=min_scaled,
        max_quad_dual_rel=max_quad_rel,
        max_eig_dual_rel=max_eig_rel,
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
    )
