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
stack of probes E, so each weight class and each bound formula is
written down once.

The Einstein certificate evaluates the spectrum against two thresholds:

* einstein_threshold      k = n(n+2)/(2(n+1)): k-nonnegativity forces a
  compact manifold with harmonic curvature to be Einstein;
* constant_curvature_threshold  min(einstein, max(4, floor((n+2)/4))):
  k-nonnegativity at this level forces constant sectional curvature.

A fuzz campaign hammers the five bounds with seeded random tensors and
batches of random unit trace-free tensors, recording worst margins and
persisting any violator for regression replay.
"""

from __future__ import annotations

import dataclasses
import os
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CurvatureTensor,
    CurvopError,
    random_curvature,
    ricci,
    tensor_to_json,
    traceless_ricci,
)
from .operators import (
    Spectrum,
    _traceless_components,
    basis_s2_traceless,
    s2_traceless_dim,
    second_kind_matrix,
)
from .weighted import WeightClass, KVerdict, greedy_min, k_verdict

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

#: Default relative tolerance of the Einstein test in the certificate.
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
    """Shared per-tensor context so a batch of checks assembles things once."""

    def __init__(self, T: CurvatureTensor):
        T.require_valid()
        if T.n < 3:
            raise ValueError("curvature bounds require n >= 3")
        self.T = T
        self.n = T.n
        self.basis = basis_s2_traceless(T.n)
        self.matrix = second_kind_matrix(T, self.basis)
        eigvals, eigvecs = np.linalg.eigh(self.matrix.entries)
        self.lam = Spectrum(eigvals)
        self.eigvecs = eigvecs
        self.ric = ricci(T)
        self.ric_eigs = self.ric.eigenvalues()
        self.s = self.ric.trace()
        self.scale = max(1.0, T.norm_inf())


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
    """All five checks over a stack Eb of shape (P, n, n) of trace-free probes.

    Returns ``(checks, quad_rel, eig_rel)``.  ``checks`` maps each name
    in CHECK_NAMES to (lhs, rhs, tol): scalars for the three E-free
    checks, length-P arrays for the two E-dependent ones.  The quadratic
    form is computed three ways, by index contraction, through the
    matrix, and through the eigen decomposition; ``quad_rel`` and
    ``eig_rel`` are the worst relative disagreements of the last two
    with the first.
    """
    n, lam, s = prep.n, prep.lam, prep.s
    g = {name: greedy_min(lam, cls) for name, cls in _weight_classes(n).items()}
    ric_min = float(prep.ric_eigs[0])
    tol = tol_base * prep.scale

    q_idx = np.einsum("kijl,akl,aij->a", prep.T.components, Eb, Eb, optimize=True)
    C = np.einsum("aij,bij->ab", Eb, prep.basis.stack, optimize=True)
    q_mat = np.einsum("ab,bc,ac->a", C, prep.matrix.entries, C, optimize=True)
    W = C @ prep.eigvecs
    q_eig = (W * W) @ lam.values
    nsq = np.sum(Eb * Eb, axis=(1, 2))
    nsq_floor = np.maximum(1.0, nsq)
    ric_term = np.einsum("ij,ait,ajt->a", prep.ric.components, Eb, Eb, optimize=True)
    denom = np.maximum(np.maximum(1.0, np.abs(q_idx)), prep.scale * nsq_floor)
    quad_rel = float(np.max(np.abs(q_idx - q_mat) / denom))
    eig_rel = float(np.max(np.abs(q_idx - q_eig) / denom))

    tol_e = tol * nsq_floor
    checks = {
        "scalar_lower_bound": (s, (2.0 * n / (n + 2.0)) * g["scalar_lower_bound"], tol),
        "ricci_lower_bound": (
            ric_min,
            ((n - 1.0) / (n + 1.0)) * g["ricci_lower_bound"] + s / (n * (n + 1.0)),
            tol,
        ),
        "ricci_combined_bound": (ric_min, g["ricci_combined_bound"], tol),
        "quadform_lower_bound": (q_idx, g["quadform_lower_bound"] * nsq, tol_e),
        "bochner_lower_bound": (q_idx + ric_term, g["bochner_lower_bound"] * nsq, tol_e),
    }
    return checks, quad_rel, eig_rel


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _require_finite(values: dict) -> None:
    """Raise :class:`CurvopError` at the first of ``values`` that is not finite."""
    for what, value in values.items():
        if not np.isfinite(value):
            raise CurvopError(
                f"{what} is {float(value)!r}: the tensor is too large to evaluate in "
                "double precision"
            )


def _checks(prep: _Prep, E, tol, seed) -> tuple[InequalityReport, ...]:
    """The body of :func:`all_checks` on an already prepared tensor."""
    with np.errstate(over="ignore", invalid="ignore"):
        if E is None:
            E = traceless_ricci(prep.T)
        Eb = _traceless_components(E, prep.n)[None]
        tol_base = _check_tol(TOL_INEQ if tol is None else tol)
        checks, quad_rel, eig_rel = _evaluate(prep, Eb, tol_base)
        reports = []
        for name in CHECK_NAMES:
            lhs, rhs, eff = (np.ravel(x)[0] for x in checks[name])
            reports.append(_report(name, prep.n, lhs, rhs, eff, prep.T.fingerprint, seed))
    rels = {"matrix": quad_rel, "eigen": eig_rel}
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
    return _checks(_Prep(T), E, tol, seed)


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


def einstein_certificate(T, tol: float = _EINSTEIN_TOL) -> EinsteinCertificate:
    """Test a tensor's second-kind spectrum against both thresholds.

    ``is_einstein`` means the trace-free Ricci norm is below
    tol * (1 + |Ric|_F).  Conclusions are plain-language statements of
    what the verdicts imply for a compact manifold with harmonic
    curvature whose curvature tensor equals T at every point.  Raises
    :class:`CurvopError` when a k-sum or a norm is not finite.
    """
    return _certificate(_Prep(T), tol)


def _certificate(prep: _Prep, tol: float = _EINSTEIN_TOL) -> EinsteinCertificate:
    """The body of :func:`einstein_certificate` on an already prepared tensor."""
    profile = threshold_profile(prep.n)
    with np.errstate(over="ignore", invalid="ignore"):
        kv_e = k_verdict(prep.lam, profile.einstein_threshold)
        kv_c = k_verdict(prep.lam, profile.constant_curvature_threshold)
        e_norm = traceless_ricci(prep.T).frobenius()
        ric_norm = float(np.linalg.norm(prep.ric.components))
    _require_finite({
        "einstein threshold k-sum": kv_e.value,
        "constant curvature threshold k-sum": kv_c.value,
        "traceless Ricci norm": e_norm,
        "Ricci norm": ric_norm,
    })
    is_einstein = e_norm <= tol * (1.0 + ric_norm)

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


def _fuzz_trial(idx: int, n: int, seed: int, e_per_tensor: int, tol_base: float) -> dict:
    """Run one seeded tensor and its unit probes through all five checks.

    Returns plain floats: per check the worst margin over the probes and
    the tolerance at that probe.
    """
    trial_seed = seed ^ idx
    terms = 1 + idx % 3
    T = random_curvature(trial_seed, n, terms=terms)
    prep = _Prep(T)

    rng = np.random.default_rng([trial_seed, 1])
    raw = rng.normal(size=(e_per_tensor, n, n))
    sym = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
    tr = np.trace(sym, axis1=1, axis2=2)
    Eb = sym - tr[:, None, None] * (np.eye(n) / n)
    norms = np.sqrt(np.einsum("aij,aij->a", Eb, Eb))
    Eb /= norms[:, None, None]

    checks, quad_rel, eig_rel = _evaluate(prep, Eb, tol_base)
    margins, tols = {}, {}
    for name, (lhs, rhs, tol) in checks.items():
        margin = lhs - rhs
        if np.ndim(margin):
            worst = margin.argmin()
            margin, tol = margin[worst], tol[worst]
        margins[name] = float(margin)
        tols[name] = float(tol)

    return {
        "idx": idx,
        "n": n,
        "trial_seed": trial_seed,
        "terms": terms,
        "fingerprint": T.fingerprint,
        "scale": prep.scale,
        "tols": tols,
        "margins": margins,
        "quad_rel": quad_rel,
        "eig_rel": eig_rel,
    }


def _fuzz_chunk(args) -> list[dict]:
    seed, items, e_per_tensor, tol_base = args
    return [_fuzz_trial(idx, n, seed, e_per_tensor, tol_base) for idx, n in items]


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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
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

    Each trial owns the RNG stream seeded by seed XOR its global index,
    so results are independent of scheduling and identical for jobs=1
    and jobs>1.  Violators (margin below -tol * scale) are persisted to
    ``regression_dir``, the CURVOP_REGRESSION_DIR environment variable,
    or ./regressions, in that order of preference.  ``tol`` must be a
    finite number >= 0, and ``jobs`` is capped at the CPU count and the
    number of trials.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if trials_per_n < 1:
        raise ValueError("trials_per_n must be >= 1")
    if e_per_tensor < 1:
        raise ValueError("e_per_tensor must be >= 1")
    _check_tol(tol)
    ns = tuple(int(n) for n in ns)
    if any(n < 3 for n in ns):
        raise ValueError("fuzz dimensions must satisfy n >= 3")
    start = time.perf_counter()

    items = []
    idx = 0
    for n in ns:
        for _ in range(trials_per_n):
            items.append((idx, n))
            idx += 1

    # A fork-started pool starts every worker at once, even for empty chunks.
    jobs = min(jobs, os.cpu_count() or 1, len(items))
    if jobs <= 1:
        results = _fuzz_chunk((seed, items, e_per_tensor, tol))
    else:
        chunks = [
            (seed, items[i::jobs], e_per_tensor, tol) for i in range(jobs)
        ]
        results = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_fuzz_chunk, chunks):
                results.extend(part)
        results.sort(key=lambda r: r["idx"])

    min_scaled = {name: np.inf for name in CHECK_NAMES}
    max_quad_rel = 0.0
    max_eig_rel = 0.0
    violations: list[Violation] = []
    for r in results:
        for name in CHECK_NAMES:
            scaled = r["margins"][name] / r["scale"]
            min_scaled[name] = min(min_scaled[name], scaled)
            if r["margins"][name] < -r["tols"][name]:
                violations.append(
                    Violation(
                        check=name,
                        n=r["n"],
                        trial_index=r["idx"],
                        trial_seed=r["trial_seed"],
                        terms=r["terms"],
                        margin=r["margins"][name],
                        tol=r["tols"][name],
                        fingerprint=r["fingerprint"],
                    )
                )
        max_quad_rel = max(max_quad_rel, r["quad_rel"])
        max_eig_rel = max(max_eig_rel, r["eig_rel"])

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
        tensors=len(items),
        tol=tol,
        min_scaled_margins={k: float(v) for k, v in min_scaled.items()},
        max_quad_dual_rel=max_quad_rel,
        max_eig_dual_rel=max_eig_rel,
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
    )
