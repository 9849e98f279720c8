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

whose sign defines k-nonnegativity and k-positivity of a spectrum, and
k_sum is computed as that case.  In general greedy_min(lam, [omega,
total]) = omega * k_sum(lam, total / omega).

Weight classes combine: scaling by a > 0 multiplies both parameters,
and termwise addition of two classes adds them.  Those rules are not
used here; ``tests/oracles.py`` states them (``class_scale``,
``class_add``, with the per-count bounds and a weight sampler), and
property tests exercise them against the greedy minimum.
"""

from __future__ import annotations

from math import floor

import numpy as np

from . import _EXPORTS
from .base import AdmissibilityError, _k_count, _real, _Record
from .operators import Spectrum

__all__ = list(_EXPORTS["weighted"])

#: Half-width of the boundary band around zero for k-verdicts, relative to the
#: largest absolute eigenvalue of the spectrum judged.
BOUNDARY_TOL = 1e-12


def _ascending(lam) -> np.ndarray:
    """The values of a Spectrum, or of an array-like checked as Spectrum checks them."""
    if not isinstance(lam, Spectrum):
        lam = Spectrum(lam)
    if len(lam) == 0:
        raise ValueError("spectrum is empty")
    return lam.values


class WeightClass(_Record):
    """Capped-simplex weight class: per-weight cap ``omega``, fixed ``total``.

    Both parameters must be positive reals.  Admissibility for a spectrum of
    length N means total <= N * omega (up to roundoff).
    """

    omega: float
    total: float

    def __post_init__(self):
        for name in ("omega", "total"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, strict=True))

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
    return float(_greedy_min(arr, WeightClass(1.0, _k_count(k, arr.size))))


class KVerdict(_Record):
    """Outcome of a k-positivity test, carrying the witness value.

    ``boundary`` flags values within +/- 1e-12 times the largest absolute
    eigenvalue of zero, where the strict/non-strict distinction is
    numerically meaningless.
    """

    k: float
    value: float
    nonnegative: bool
    positive: bool
    boundary: bool


def k_verdict(lam, k: float) -> KVerdict:
    """Evaluate k_sum and classify its sign against the band of :class:`KVerdict`.

    A non-finite eigenvalue raises :class:`CurvopError`: it is an error,
    never a failed property.
    """
    if not isinstance(lam, Spectrum):
        lam = Spectrum(lam)  # checked once here; k_sum takes a Spectrum as it is
    value = k_sum(lam, k)
    band = BOUNDARY_TOL * max(-float(lam[0]), float(lam[-1]))
    return KVerdict(float(k), value, value >= -band, value > band, abs(value) <= band)


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

