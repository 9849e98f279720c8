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
when the margin clears a tolerance of tol_base times the largest
absolute component of T, times |E|^2 for the two E-dependent checks,
so no verdict changes under T -> cT.
The round sphere saturates all five with margin zero, and the scalar
bound is in fact an identity for every tensor (its class pins all
weights to the cap), which the test suite uses as a calibration.

``all_checks`` is the one entry point for the five bounds.  It and the
fuzz campaign share a single kernel that evaluates all five over a
stack of tensors of one dimension, each with a stack of probes E, so
each weight class and each bound formula is written down once.  A
stack is prepared once: validated, assembled and eigensolved, with
every per-tensor quantity of the checks worked out.  Then one kernel
pass runs the five checks on any run of the stack's tensors with their
probes, and gives each check once per tensor, at its worst probe.
``all_checks`` is its one-tensor, one-probe case.

The Einstein certificate evaluates the spectrum against the two
dimension thresholds of ``base.threshold_profile``.

A fuzz campaign hammers the five bounds with seeded random tensors and
batches of random unit trace-free tensors, run through the kernel in
blocks of one dimension, recording worst margins and persisting any
violator for regression replay.  Each trial draws its tensor and then its
probes, as coordinates in the trace-free frame of ``operators``, from one
generator, so its trial seed replays both.  A block's stack is prepared
once, and then one kernel pass runs per probe slice of bounded size.
"""

from __future__ import annotations

import os
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _EXPORTS
from .base import (
    TOL_INEQ,
    _BLOCK_TRIALS,
    CurvopError,
    ThresholdProfile,
    _fuzz_arguments,
    _json_text,
    _probe_slices,
    _Record,
    _require_bounds_dimension,
    _tol,
    s2_traceless_dim,
    threshold_profile,
)
from .core import (
    CurvatureTensor,
    Sym2Tensor,
    TracelessSym2,
    _fingerprint,
    _norm_inf,
    _random_stack,
    _require_finite,
    _require_valid_stack,
    _ricci,
    _trace_free,
    random_curvature,
    tensor_to_json,
)
from .operators import (
    Spectrum,
    _second_kind_entries,
    _spectra,
    coordinates,
    reconstruct,
    second_kind_matrix,
)
from .weighted import BOUNDARY_TOL, WeightClass, KVerdict, _greedy_min, k_verdict

__all__ = list(_EXPORTS["verify"])

#: Tolerance of the Einstein test, relative to the tensor's largest absolute component.
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


class InequalityReport(_Record):
    """Outcome of one lower-bound check.

    ``margin`` is lhs - rhs.  The verdict is a trichotomy against the
    effective tolerance: "violated" (margin < -tol), "boundary"
    (|margin| <= tol), "holds" (margin > tol).  ``ok`` is True unless
    violated, and is what exit codes and assertions consume.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    verdict: str
    n: int
    fingerprint: str
    seed: int | None
    tol: float

    @property
    def ok(self) -> bool:
        return self.verdict != "violated"


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

    A batch of checks assembles and eigensolves once, and works out once
    every per-tensor quantity the checks read: the greedy minimum ``g``
    of each check's weight class (shape (5, B), in CHECK_NAMES order),
    the smallest Ricci eigenvalue, the scalar curvature and the scale.
    Every other array has the leading axis B; ``T`` is the tensor when
    the stack is the one tensor of :func:`_prepare`.
    """

    def __init__(self, R: np.ndarray, matrix: np.ndarray, T: CurvatureTensor | None = None):
        self.T = T
        self.n = R.shape[-1]
        self.R = R
        self.matrix = matrix
        eigvals, self.eigvecs = np.linalg.eigh(matrix)
        self.lam = _spectra(eigvals)
        self.ric = _ricci(R)
        self.ric_min = np.linalg.eigvalsh(self.ric)[:, 0]
        self.s = np.trace(self.ric, axis1=-2, axis2=-1)
        self.scale = _norm_inf(R)
        self.g = np.array([_greedy_min(self.lam, cls) for cls in _weight_classes(self.n)])

    @cached_property
    def traceless_ricci(self) -> TracelessSym2:
        """The trace-free Ricci tensor of the one tensor of :func:`_prepare`."""
        return _trace_free(self.ric[0])


def _prepare(T: CurvatureTensor) -> _Prep:
    """The context of one validated tensor, a stack with B = 1."""
    T.require_valid()
    _require_bounds_dimension(T.n)
    return _Prep(T.components[None], second_kind_matrix(T).entries[None], T)


def _prepare_stack(R: np.ndarray) -> _Prep:
    """The context of a stack (B, n, n, n, n), each tensor checked as :func:`_prepare` checks it."""
    _require_valid_stack(R)
    return _Prep(R, _second_kind_entries(R))


def _weight_classes(n: int) -> tuple[WeightClass, ...]:
    """The weight class [cap, total] of each check, in CHECK_NAMES order."""
    return (
        WeightClass(1.0, float(s2_traceless_dim(n))),
        WeightClass(1.0, float(n)),
        WeightClass(n / (n + 2.0), n - 1.0),
        WeightClass(1.0, 1.0),
        WeightClass(2.0 * (n + 1.0) / (n + 2.0), float(n)),
    )


def _probe_terms(e: np.ndarray, ric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(|E|^2, sum Ric[i,j] E[i,t] E[j,t])`` of flat probes e (b, P, n^2), ric (b, n, n).

    The Ricci term is one product per tensor, the rows of all its probes
    (P n, n) times Ric, contracted with e: sum E[t,i] Ric[i,j] E[t,j],
    which is the term since E is symmetric.
    """
    ric_e = (e.reshape(len(e), -1, ric.shape[-1]) @ ric).reshape(e.shape)
    return np.einsum("...i,...i->...", e, e), np.einsum("...i,...i->...", ric_e, e)


def _kernel(prep: _Prep, rows: slice, C: np.ndarray, e: np.ndarray, tol_base: float):
    """The five checks on the tensors ``rows`` of ``prep``, each at its worst probe.

    ``e`` (b, P, n^2) holds P trace-free probes for each of the b tensors
    in ``rows``, each matrix flattened to a row, ``C`` (b, P, N) their
    frame coordinates.  Every array is cut to ``rows`` before use, so
    each per-tensor product has the shape, and so the bits, it has in a
    stack of one.

    Returns ``(checks, quad_rel, eig_rel)``.  ``checks`` has shape
    (3, 5, b): lhs, rhs and tol, one row per check in CHECK_NAMES order.
    The E-free checks come straight from the per-tensor arrays of
    ``prep``; an E-dependent check is taken at its worst probe, the first
    argmin of lhs - rhs.  |E|^2 and the Ricci term are read from the
    rows (see :func:`_probe_terms`).  The quadratic form is computed
    three ways: by index contraction from e, and through the matrix and
    through the eigen decomposition from C.  ``quad_rel`` and
    ``eig_rel``, of shape (b,), are the worst relative disagreements over
    all probes of the last two with the first.
    """
    n, g = prep.n, prep.g[:, rows]
    R, ric, matrix, eigvecs, lam, s, ric_min, scale = (x[rows] for x in (
        prep.R, prep.ric, prep.matrix, prep.eigvecs, prep.lam, prep.s, prep.ric_min, prep.scale))

    # The index contraction sum R[k,i,j,l] E[k,l] E[i,j] as e^T S e, with
    # S[(k,l),(i,j)] = R[k,i,j,l].
    S = np.transpose(R, (0, 1, 4, 2, 3)).reshape(-1, n * n, n * n)
    q_idx = np.einsum("...i,...i->...", e @ S, e)
    nsq, ric_term = _probe_terms(e, ric)
    q_mat = np.einsum("...i,...i->...", C @ matrix, C)
    W = C @ eigvecs
    W *= W
    q_eig = (W @ lam[:, :, None])[..., 0]
    # The denominator is 0 only when all three paths are exactly 0.
    denom = np.maximum(np.abs(q_idx), scale[:, None] * nsq)
    gaps = np.abs(q_idx - np.stack([q_mat, q_eig]))
    quad_rel, eig_rel = np.max(np.divide(gaps, denom, out=gaps, where=denom > 0), axis=-1)

    lhs_e = np.stack([q_idx, q_idx + ric_term])
    worst = np.argmin(lhs_e - g[3:, :, None] * nsq, axis=-1)[..., None]
    lhs_e = np.take_along_axis(lhs_e, worst, axis=-1)[..., 0]
    nsq = np.take_along_axis(nsq[None], worst, axis=-1)[..., 0]
    tol = tol_base * scale
    checks = np.array([
        [s, ric_min, ric_min, *lhs_e],
        [(2.0 * n / (n + 2.0)) * g[0], ((n - 1.0) / (n + 1.0)) * g[1] + s / (n * (n + 1.0)),
         g[2], *(g[3:] * nsq)],
        [tol, tol, tol, *(tol * nsq)],
    ])
    return checks, quad_rel, eig_rel


def _checks(prep: _Prep, E, tol, seed) -> tuple[InequalityReport, ...]:
    """The body of :func:`all_checks` on an already prepared tensor."""
    with np.errstate(over="ignore", invalid="ignore"):
        if E is None:
            E = prep.traceless_ricci
        if isinstance(E, Sym2Tensor):
            E = E.components
        E = TracelessSym2(prep.n, E).components
        tol_base = _tol(TOL_INEQ if tol is None else tol)
        checks, quad_rel, eig_rel = _kernel(
            prep, slice(None), coordinates(E)[None, None], E.reshape(1, 1, -1), tol_base)
        reports = [
            _report(name, prep.n, lhs, rhs, eff, prep.T.fingerprint, seed)
            for name, (lhs, rhs, eff) in zip(CHECK_NAMES, checks[:, :, 0].T)
        ]
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


# --- certificates -----------------------------------------------------------


class EinsteinCertificate(_Record):
    """Spectral thresholds evaluated on one tensor, with conclusions.

    ``impossible`` flags the contradictory combination of a spectrum
    passing the Einstein threshold on a tensor that is itself not
    Einstein: no compact manifold with harmonic curvature can carry
    that tensor at every point.
    """

    n: int
    fingerprint: str
    thresholds: ThresholdProfile
    einstein_verdict: KVerdict
    constant_curvature_verdict: KVerdict
    traceless_ricci_norm: float
    is_einstein: bool
    impossible: bool
    conclusions: tuple[str, ...]


def einstein_certificate(T) -> EinsteinCertificate:
    """Test a tensor's second-kind spectrum against both thresholds.

    ``is_einstein`` means the trace-free Ricci norm is at most 1e-9 times
    the largest absolute component of T.  Conclusions are plain-language
    statements of what the verdicts imply for a compact manifold with
    harmonic curvature whose curvature tensor equals T at every point.  Raises
    :class:`CurvopError` when a k-sum or a norm is not finite.
    """
    return _certificate(_prepare(T))


def _certificate(prep: _Prep) -> EinsteinCertificate:
    """The body of :func:`einstein_certificate` on an already prepared tensor."""
    profile = threshold_profile(prep.n)
    lam = Spectrum(prep.lam[0])
    with np.errstate(over="ignore", invalid="ignore"):
        kv_e = k_verdict(lam, profile.einstein_threshold)
        kv_c = k_verdict(lam, profile.constant_curvature_threshold)
        e_norm = prep.traceless_ricci.frobenius()
    _require_finite({
        "einstein threshold k-sum": kv_e.value,
        "constant curvature threshold k-sum": kv_c.value,
        "traceless Ricci norm": e_norm,
    })
    is_einstein = e_norm <= _EINSTEIN_TOL * float(prep.scale[0])

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
            f"a threshold sum sits within {BOUNDARY_TOL:g} times the largest |eigenvalue| "
            "of zero; strict positivity statements are not numerically decidable here"
        )
    return EinsteinCertificate(
        n=prep.n,
        fingerprint=prep.T.fingerprint,
        thresholds=profile,
        einstein_verdict=kv_e,
        constant_curvature_verdict=kv_c,
        traceless_ricci_norm=e_norm,
        is_einstein=is_einstein,
        impossible=impossible,
        conclusions=tuple(conclusions),
    )


# --- fuzz campaign -----------------------------------------------------------


class Violation(_Record):
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


class FuzzSummary(_Record, eq=False):
    """Aggregate outcome of a fuzz campaign.

    ``min_scaled_margins`` maps check name to the worst margin divided
    by its tensor's largest absolute component, directly comparable to
    -tol, the base tolerance (for the unit probes of the E-dependent
    checks as well).  ``max_quad_dual_rel`` / ``max_eig_dual_rel`` are the
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
    _json_hidden = ("elapsed",)
    _json_properties = ("ok",)

    @property
    def ok(self) -> bool:
        return not self.violations


def _blocks(ns, trials_per_n: int) -> list[tuple[int, int, int]]:
    """(n, first trial index, trial count) of each block, in trial order.

    A block holds at most ``_BLOCK_TRIALS`` trials of one n.  The
    boundaries depend on nothing but the arguments, so a campaign runs
    the same blocks whatever the number of jobs.
    """
    blocks, start = [], 0
    for n in ns:
        for offset in range(0, trials_per_n, _BLOCK_TRIALS):
            blocks.append((n, start + offset, min(_BLOCK_TRIALS, trials_per_n - offset)))
        start += trials_per_n
    return blocks


def _trial_seed(seed: int, idx: int) -> int:
    """The 64-bit seed of trial ``idx``, from SeedSequence([seed, idx]).

    Streams of different campaign seeds are independent;
    ``random_curvature(trial_seed, n, terms)`` replays the trial's tensor,
    and the same generator, drawn on, its probes (see :func:`_probe_draws`).
    """
    return int(np.random.SeedSequence([seed, idx]).generate_state(1, np.uint64)[0])


def _tensor_draws(seed: int, n: int, start: int, count: int):
    """``(trial_seeds, terms, rngs, R)`` of trials start .. start + count - 1.

    Trial t has 1 + t % 3 terms and one generator, ``default_rng(trial_seed)``,
    in ``rngs``.  R[b] of the stack R (count, n, n, n, n) is drawn from it and
    is bitwise the trial's ``random_curvature(trial_seed, n, terms)``; the
    generator is left just past the tensor's draws, for the trial's probes.
    """
    idx = range(start, start + count)
    trial_seeds = [_trial_seed(seed, t) for t in idx]
    terms = [1 + t % 3 for t in idx]
    rngs = [np.random.default_rng(trial_seed) for trial_seed in trial_seeds]
    return trial_seeds, terms, rngs, _random_stack(rngs, n, terms)


def _probe_draws(rngs, n: int, e_per_tensor: int):
    """``(C, e)``: the unit trace-free probes of the given trials, in frame coordinates and as flat rows.

    Each trial's generator, just past the trial's tensor, draws its probes'
    frame coordinates as one standard normal block (e_per_tensor, N), N =
    (n-1)(n+2)/2, and each row is scaled to unit norm.  The frame is
    orthonormal, so this is the uniform law on the unit sphere of the
    trace-free symmetric matrices.  C has shape (trials, e_per_tensor, N)
    and e shape (trials, e_per_tensor, n^2): each probe's matrix
    ``reconstruct(C, n)``, flattened.
    """
    C = np.empty((len(rngs), e_per_tensor, s2_traceless_dim(n)))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=C[b])
    C /= np.sqrt(np.einsum("...i,...i->...", C, C))[..., None]
    return C, reconstruct(C, n).reshape(C.shape[:2] + (n * n,))


def _fuzz_block(args) -> dict:
    """Run one block of trials through all five checks.

    ``args`` is (seed, block, e_per_tensor, tol_base), with a block from
    :func:`_blocks`.  The block's tensors are drawn and their stack is
    prepared once: validated, assembled and eigensolved.  Then, one slice
    of :func:`_probe_slices` at a time, the slice's probes are drawn, in
    frame coordinates and as flat rows, and one kernel pass runs all five
    checks on them, so only one slice's probes are held at once.

    Returns per-trial arrays: for each check the margin lhs - rhs and the
    tolerance at the worst probe the kernel picked, the scale, both
    dual-path disagreements; and the block's violations, in trial order.
    """
    seed, (n, start, count), e_per_tensor, tol_base = args
    trial_seeds, terms, rngs, R = _tensor_draws(seed, n, start, count)
    prep = _prepare_stack(R)
    checks = np.empty((3, len(CHECK_NAMES), count))
    quad_rel, eig_rel = np.empty((2, count))
    for rows in _probe_slices(n, count, e_per_tensor):
        C, e = _probe_draws(rngs[rows], n, e_per_tensor)
        checks[:, :, rows], quad_rel[rows], eig_rel[rows] = _kernel(prep, rows, C, e, tol_base)
        del C, e  # so that the next slice's probes are drawn without this slice's
    lhs, rhs, tols = checks
    margins = lhs - rhs

    violations = []
    for b, c in np.argwhere((margins < -tols).T).tolist():
        violations.append(Violation(
            check=CHECK_NAMES[c],
            n=n,
            trial_index=start + b,
            trial_seed=trial_seeds[b],
            terms=terms[b],
            margin=float(margins[c, b]),
            tol=float(tols[c, b]),
            fingerprint=_fingerprint(R[b]),
        ))
    return {
        "scale": prep.scale,
        "margins": dict(zip(CHECK_NAMES, margins)),
        "tols": dict(zip(CHECK_NAMES, tols)),
        "quad_rel": quad_rel,
        "eig_rel": eig_rel,
        "violations": violations,
    }


def persist_violator(T: CurvatureTensor, directory, meta: dict | None = None) -> Path:
    """Write a violating tensor (plus metadata) for regression replay.

    The file is ``json.dumps(doc, indent=2)`` of one entry per symmetry
    orbit.  A drawn tensor's linear symmetries hold exactly, so the file
    reloads it bitwise and ``curvop bounds --input FILE`` replays the three
    E-free margins to the bit, as ``random_curvature(trial_seed, n, terms)``
    does from the trial that a campaign's ``meta`` names.  ``bounds`` takes
    the E checks at the trace-free Ricci tensor, not at the fuzz probe,
    so an E-dependent margin replays only through the trial's stream.
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

    Trial t (counted across ``ns`` in order) has one generator,
    ``np.random.default_rng(trial_seed)`` with ``trial_seed`` from
    SeedSequence([seed, t]).  It draws the trial's tensor as
    ``random_curvature(trial_seed, n, terms)`` does and then its
    ``e_per_tensor`` probes, (n-1)(n+2)/2 frame coordinates each (see
    :func:`_probe_draws`), so ``trial_seed`` replays both.  The
    trials of each n run in blocks of at most 32: a block's stack of
    tensors is prepared once (validated, assembled and eigensolved), and
    then one kernel pass runs all five checks per slice of at most
    512 KiB of probe rows, or of reordered tensors where those are larger
    (always at least one trial).  ``jobs`` > 1
    hands whole blocks to worker processes.  Neither blocks nor slices
    depend on ``jobs``, so the report is identical for jobs=1 and
    jobs>1.  Violators (margin below -tol * scale) are persisted to
    ``regression_dir``, the CURVOP_REGRESSION_DIR environment variable,
    or ./regressions, in that order of preference.  Raises
    :class:`ValueError` unless seed >= 0, trials_per_n >= 1, ``ns``
    holds one or more n >= 3, e_per_tensor >= 1, tol >= 0 and jobs >= 1,
    and before any block is listed when the block list, the results and
    one block of the largest n (what each tensor holds, the frame's rows
    and one probe slice) would not fit in physical memory; ``jobs`` is capped
    at the CPU count and the number of blocks.  A violator's file carries
    the violation's fields, bar its path, and the campaign seed as ``meta``.
    """
    seed, trials_per_n, ns, e_per_tensor, tol, jobs = _fuzz_arguments(
        seed, trials_per_n, ns, e_per_tensor, tol, jobs)
    start = time.perf_counter()
    blocks = _blocks(ns, trials_per_n)
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
        name: float(min(np.min(r["margins"][name] / r["scale"]) for r in results))
        for name in CHECK_NAMES
    }
    max_quad_rel = float(max(np.max(r["quad_rel"]) for r in results))
    max_eig_rel = float(max(np.max(r["eig_rel"]) for r in results))
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
            meta = v.to_json()
            del meta["path"]
            path = persist_violator(T, directory, meta={**meta, "seed": seed})
            persisted.append(v._replace(path=str(path)))
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
