"""Weighted sums of eigenvalues: capped-simplex minima and k-positivity.

Given eigenvalues lam_1 <= ... <= lam_N, a weight class with cap
``omega`` and total ``total`` is the polytope of weight vectors

    { w in R^N : 0 <= w_i <= omega,  sum_i w_i = total },

nonempty iff total <= N * omega.  The central quantity is the minimum
of  sum_i w_i lam_i  over that polytope.  Greedy stacking of the cap
onto the smallest eigenvalues attains it:

    m = floor(total / omega)
    min = omega * (lam_1 + ... + lam_m) + (total - m * omega) * lam_{m+1}

The special case omega = 1 is the fractional partial sum

    k_sum(lam, k) = lam_1 + ... + lam_{floor(k)} + (k - floor(k)) * lam_{floor(k)+1}

whose sign defines k-nonnegativity and k-positivity of a spectrum.
The two are linked by  greedy_min(lam, [omega, total]) =
omega * k_sum(lam, total / omega).

Weight classes combine: scaling by a > 0 multiplies both parameters,
and termwise addition of two classes adds them.  Those rules are not
assumed here, they are exercised by property tests (superadditivity of
the greedy minimum, and exact reproduction of known eigenvalue-bound
arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .core import AdmissibilityError
from .operators import Spectrum

__all__ = [
    "WeightClass",
    "KVerdict",
    "k_sum",
    "k_verdict",
    "greedy_min",
    "greedy_weights",
    "bound_for_m",
    "class_scale",
    "class_add",
    "ImplicationReport",
    "nonneg_implies_bound",
    "sample_weights",
]

#: Absolute half-width of the boundary band around zero for k-verdicts.
BOUNDARY_TOL = 1e-12


def _ascending(lam) -> np.ndarray:
    """The values of a Spectrum, or of an array-like checked as Spectrum checks them."""
    if not isinstance(lam, Spectrum):
        lam = Spectrum(lam)
    if len(lam) == 0:
        raise ValueError("spectrum is empty")
    return lam.values


@dataclass(frozen=True)
class WeightClass:
    """Capped-simplex weight class: per-weight cap ``omega``, fixed ``total``.

    Both parameters must be positive.  Admissibility for a spectrum of
    length N means total <= N * omega (up to roundoff).
    """

    omega: float
    total: float

    def __post_init__(self):
        if not (self.omega > 0.0) or not np.isfinite(self.omega):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not (self.total > 0.0) or not np.isfinite(self.total):
            raise ValueError(f"total must be positive and finite, got {self.total!r}")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "total", float(self.total))

    @property
    def k(self) -> float:
        """Equivalent fractional count total / omega."""
        return self.total / self.omega

    def admissible_for(self, N: int) -> bool:
        return self.total <= N * self.omega * (1.0 + 1e-12)

    def require_admissible(self, N: int) -> "WeightClass":
        if not self.admissible_for(N):
            raise AdmissibilityError(
                f"class (omega={self.omega}, total={self.total}) is empty for "
                f"N={N}: total exceeds N * omega = {N * self.omega}"
            )
        return self


def k_sum(lam, k: float) -> float:
    """Fractional partial sum of the smallest eigenvalues.

    lam_1 + ... + lam_m + (k - m) lam_{m+1} with m = floor(k); the
    fractional term is dropped when k = N.  Requires 1 <= k <= N.
    """
    arr = _ascending(lam)
    N = arr.size
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if k < 1.0 - 1e-12 or k > N * (1.0 + 1e-12):
        raise ValueError(f"k must lie in [1, {N}], got {k}")
    k = min(max(float(k), 1.0), float(N))
    m = floor(k)
    if m >= N:
        return float(arr.sum())
    return float(arr[:m].sum() + (k - m) * arr[m])


@dataclass(frozen=True)
class KVerdict:
    """Outcome of a k-positivity test, carrying the witness value.

    ``boundary`` flags values within +/- 1e-12 of zero, where the
    strict/non-strict distinction is numerically meaningless.
    """

    k: float
    value: float
    nonnegative: bool
    positive: bool
    boundary: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "value": self.value,
            "nonnegative": self.nonnegative,
            "positive": self.positive,
            "boundary": self.boundary,
        }


def k_verdict(lam, k: float) -> KVerdict:
    """Evaluate k_sum and classify its sign.

    A non-finite eigenvalue raises :class:`CurvopError`: it is an error,
    never a failed property.
    """
    value = k_sum(lam, k)
    boundary = abs(value) <= BOUNDARY_TOL
    return KVerdict(
        k=float(k),
        value=value,
        nonnegative=value >= -BOUNDARY_TOL,
        positive=value > BOUNDARY_TOL,
        boundary=boundary,
    )


def greedy_min(lam, cls: WeightClass) -> float:
    """Sharp minimum of sum w_i lam_i over the weight class.

    Equals omega * k_sum(lam, total / omega).  Raises
    :class:`AdmissibilityError` when the class is empty for len(lam).
    """
    return float(_greedy_min(_ascending(lam), cls))


def _greedy_min(arr: np.ndarray, cls: WeightClass) -> np.ndarray:
    """:func:`greedy_min` along the last axis of checked ascending spectra (..., N)."""
    N = arr.shape[-1]
    cls.require_admissible(N)
    m = floor(cls.total / cls.omega)
    if m >= N:
        return cls.omega * arr.sum(axis=-1)
    return cls.omega * arr[..., :m].sum(axis=-1) + (cls.total - m * cls.omega) * arr[..., m]


def greedy_weights(lam, cls: WeightClass) -> np.ndarray:
    """A minimizing weight vector, aligned with the ascending eigenvalues.

    Caps the first floor(total/omega) weights and puts the remainder on
    the next one; feasible by construction and attains greedy_min.
    """
    arr = _ascending(lam)
    N = arr.size
    cls.require_admissible(N)
    w = np.zeros(N)
    m = floor(cls.total / cls.omega)
    if m >= N:
        w[:] = cls.omega
        return w
    w[:m] = cls.omega
    w[m] = cls.total - m * cls.omega
    return w


def bound_for_m(lam, cls: WeightClass, m: int) -> float:
    """Candidate lower bound  (total - m omega) lam_{m+1} + omega (lam_1+...+lam_m).

    Valid (<= every weighted sum in the class) for any integer
    1 <= m <= N - 1; m = N is allowed only when total = N * omega, where
    the second term is absent.  The greedy choice m = floor(total/omega)
    maximizes the bound over m.
    """
    arr = _ascending(lam)
    N = arr.size
    cls.require_admissible(N)
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= N:
        raise ValueError(f"m must lie in [1, {N}], got {m}")
    if m == N:
        if abs(cls.total - N * cls.omega) > 1e-9 * max(1.0, cls.total):
            raise ValueError(
                "m = N requires total = N * omega (no lam_{N+1} exists)"
            )
        return float(cls.omega * arr.sum())
    return float(
        (cls.total - m * cls.omega) * arr[m] + cls.omega * arr[:m].sum()
    )


def class_scale(a: float, cls: WeightClass) -> WeightClass:
    """Scale a class by a > 0: both the cap and the total multiply by a."""
    if not (a > 0.0) or not np.isfinite(a):
        raise ValueError(f"scale factor must be positive and finite, got {a!r}")
    return WeightClass(omega=a * cls.omega, total=a * cls.total)


def class_add(c1: WeightClass, c2: WeightClass) -> WeightClass:
    """Termwise sum of two classes: caps add, totals add."""
    return WeightClass(omega=c1.omega + c2.omega, total=c1.total + c2.total)


@dataclass(frozen=True)
class ImplicationReport:
    """Check that k-nonnegativity forces a nonnegative greedy minimum.

    With k = total/omega, the greedy identity makes the implication
    exact; ``holds`` records it up to the tolerance, and ``vacuous``
    marks spectra that are not k-nonnegative to begin with.
    """

    k: float
    verdict: KVerdict
    greedy: float
    holds: bool
    vacuous: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "k_sum": self.verdict.value,
            "greedy": self.greedy,
            "holds": self.holds,
            "vacuous": self.vacuous,
        }


def nonneg_implies_bound(lam, cls: WeightClass, tol: float = 1e-9) -> ImplicationReport:
    """If lam is (total/omega)-nonnegative then greedy_min >= -tol."""
    arr = _ascending(lam)
    cls.require_admissible(arr.size)
    k = cls.k
    verdict = k_verdict(arr, k)
    g = greedy_min(arr, cls)
    vacuous = not verdict.nonnegative
    holds = True if vacuous else g >= -tol
    return ImplicationReport(k=k, verdict=verdict, greedy=g, holds=holds, vacuous=vacuous)


def sample_weights(
    rng: np.random.Generator | int,
    cls: WeightClass,
    N: int,
    count: int,
    extreme_fraction: float = 0.5,
) -> np.ndarray:
    """Random admissible weight vectors, shape (count, N).

    Half the draws (by default) are vertices of the polytope: the cap on
    floor(total/omega) randomly chosen coordinates and the remainder on
    another.  The rest are interior points, built by scaling a Dirichlet
    draw to the total and water-filling the excess over the cap back
    onto coordinates with room.  Every row satisfies 0 <= w <= omega and
    sum w = total up to roundoff.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    cls.require_admissible(N)
    if count < 1:
        raise ValueError("count must be >= 1")
    omega, total = cls.omega, cls.total
    n_ext = int(round(count * extreme_fraction))
    rows = []

    m = floor(total / omega)
    rem = total - m * omega
    for _ in range(n_ext):
        w = np.zeros(N)
        perm = rng.permutation(N)
        w[perm[:m]] = omega
        if m < N and rem > 0.0:
            w[perm[m]] = rem
        rows.append(w)

    n_int = count - n_ext
    if n_int > 0:
        w = rng.dirichlet(np.ones(N), size=n_int) * total
        for _ in range(200):
            np.clip(w, 0.0, omega, out=w)
            deficit = total - w.sum(axis=1)
            if np.all(np.abs(deficit) <= 1e-12 * max(1.0, total)):
                break
            room = omega - w
            room_total = room.sum(axis=1)
            room_total[room_total == 0.0] = 1.0
            w += deficit[:, None] * room / room_total[:, None]
        np.clip(w, 0.0, omega, out=w)
        rows.extend(w)

    out = np.stack(rows)
    sums = out.sum(axis=1)
    if np.max(np.abs(sums - total)) > 1e-9 * max(1.0, total):
        raise RuntimeError("weight sampler failed to hit the total within tolerance")
    return out
