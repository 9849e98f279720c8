"""Curvature operators of the first and second kind as dense matrices.

A curvature tensor acts on two natural spaces of 2-tensors:

* the first kind acts on antisymmetric matrices (dimension n(n-1)/2),
  via  (A |-> sum_{ij} R[i,j,k,l] A[i,j] / 2);
* the second kind acts on trace-free symmetric matrices (dimension
  (n-1)(n+2)/2), as the compression of  S |-> sum_{kl} R[k,i,j,l] S[k,l]
  to the trace-free subspace.

Both are Gram matrices M[a,b] = <op(B_a), B_b> over one fixed orthonormal
frame B: (e_i e_j^T -/+ e_j e_i^T)/sqrt(2) for i < j in lexicographic
order, followed on the trace-free side by the n - 1 Helmert elements
diag(1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)), k = 1..n-1.  Restricting
to a trace-free orthonormal family makes the compression automatic, and
any other orthonormal frame yields the same spectra.  In this frame every
entry is a gathered component of R, or a sum of two, except in the
second kind's diagonal block, which mixes components through the Helmert
rows.

On the round sphere of curvature kappa both operators are kappa times
the identity, which calibrates the sign convention and the 1/2 in the
first-kind action.  The gather keeps the first kind exact, and the
diagonal block is scaled by the integer Helmert numerators before one
division, which keeps the second kind exact for dyadic kappa.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .base import _Record, lambda2_dim, s2_traceless_dim
from .core import CurvatureTensor, Sym2Tensor, _require_finite

__all__ = list(_EXPORTS["operators"])

LAMBDA2 = "lambda2"
S2_TRACELESS = "s02"

#: Gap, relative to a spectrum's largest absolute eigenvalue, up to which
#: adjacent eigenvalues are reported as degenerate.
DEGENERACY_GAP = 1e-7


class _Frame(NamedTuple):
    """Index form of the fixed frame at one dimension n (read-only arrays)."""

    I: np.ndarray  # (n(n-1)/2,) first index of each pair i < j, lexicographic
    J: np.ndarray  # (n(n-1)/2,) second index
    U: np.ndarray  # (n-1, n) Helmert numerators: row k-1 is k ones, then -k
    w: np.ndarray  # (n-1,) k (k + 1), the squared norm of row k-1 of U
    H: np.ndarray  # (n-1, n) U / sqrt(w): the trace-free diagonal elements


@lru_cache(maxsize=None)
def _frame(n: int) -> _Frame:
    I, J = np.triu_indices(n, 1)
    k = np.arange(1, n)
    U = np.tri(n - 1, n)
    U[k - 1, k] = -k
    w = k * (k + 1.0)
    frame = _Frame(I, J, U, w, U / np.sqrt(w)[:, None])
    for arr in frame:
        arr.setflags(write=False)
    return frame


def _exact(M: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 of each matrix of a stack (..., N, N): exactly symmetric.

    Entries that are (or overflow to) infinity or NaN raise :class:`CurvopError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sym = M + np.swapaxes(M, -1, -2)
    sym /= 2.0
    _require_finite({"matrix entry": sym})
    return sym


def _symmetric(M) -> np.ndarray:
    """A caller's matrix M as floats, checked and exactly symmetrized.

    Rejects a non-square shape and asymmetry beyond 1e-12 times the
    largest absolute entry with :class:`ValueError`, and entries that are
    (or overflow to) infinity or NaN with :class:`CurvopError`.
    """
    arr = np.array(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    sym = _exact(arr)
    with np.errstate(over="ignore"):
        skew = np.max(np.abs(arr - arr.T))
    if skew > 1e-12 * np.max(np.abs(arr)):
        raise ValueError(f"matrix is asymmetric beyond tolerance: {skew:.3e}")
    return sym


def _spectra(values) -> np.ndarray:
    """Eigenvalues (..., N) as floats, checked finite and ascending along the last axis.

    Non-finite values raise :class:`CurvopError` (an error, never a
    verdict), descending ones :class:`ValueError`.
    """
    vals = np.array(values, dtype=float)
    _require_finite({"eigenvalue": vals})
    if np.any(np.diff(vals, axis=-1) < 0):
        raise ValueError("eigenvalues must be in ascending order")
    return vals


class OperatorMatrix(_Record, eq=False):
    """Dense, exactly symmetric matrix of a curvature operator in the fixed frame.

    ``domain`` is "lambda2" (the first kind) or "s02" (the second kind)
    and ``n`` the dimension of the underlying space.  The assembled
    matrices are exactly symmetric by construction and adopted as they
    are; entries a caller passes in are checked as :func:`spectrum`
    checks a raw array, and their exact symmetrization is stored.
    """

    domain: str
    n: int
    entries: np.ndarray
    # Private: True hands over an exactly symmetric, finite float matrix
    # that no caller holds, which is then adopted rather than checked.
    _owned: bool = False

    def __post_init__(self, _owned):
        dims = {LAMBDA2: lambda2_dim, S2_TRACELESS: s2_traceless_dim}
        if self.domain not in dims:
            raise ValueError(f"unknown domain {self.domain!r}")
        arr = self.entries if _owned else _symmetric(self.entries)
        expected = dims[self.domain](self.n)
        if arr.shape[0] != expected:
            raise ValueError(
                f"matrix dim {arr.shape[0]} does not match domain {self.domain!r} "
                f"at n={self.n}, expected {expected}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def first_kind_matrix(T: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the curvature operator on antisymmetric matrices.

    Entries M[a,b] = <op(B_a), B_b> with op(A)[k,l] = (1/2) sum_{ij}
    R[i,j,k,l] A[i,j] over the frame; the entry for pairs (i<j), (k<l)
    is just R[i,j,k,l].
    """
    T.require_valid()
    f = _frame(T.n)
    M = T.components[f.I[:, None], f.J[:, None], f.I, f.J]
    return OperatorMatrix(LAMBDA2, T.n, _exact(M), _owned=True)


def _second_kind_entries(R: np.ndarray) -> np.ndarray:
    """The second-kind matrices of a stack R (..., n, n, n, n), as (..., N, N).

    The gather of :func:`second_kind_matrix`, made exactly symmetric by
    :func:`_exact`, which also rejects an entry that overflowed.  R's
    symmetries are not judged here: validation does that before.
    """
    f = _frame(R.shape[-1])
    d = np.arange(R.shape[-1])
    I, J = f.I[:, None], f.J[:, None]
    p = f.I.size
    M = np.empty(R.shape[:-4] + (p + f.w.size,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(R[..., I, f.I, f.J, J], R[..., J, f.I, f.J, I], out=M[..., :p, :p])
        cross = (R[..., I, d, d, J] + R[..., J, d, d, I]) @ f.H.T
        np.divide(cross, np.sqrt(2.0), out=M[..., :p, p:])
        M[..., p:, :p] = np.swapaxes(M[..., :p, p:], -1, -2)
        K = R[..., d[:, None], d, d, d[:, None]]
        # H K H^T, dividing by the Helmert norms last keeps a space form exact.
        np.divide(f.U @ K @ f.U.T, np.sqrt(np.outer(f.w, f.w)), out=M[..., p:, p:])
    return _exact(M)


def second_kind_matrix(T: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the curvature operator of the second kind.

    Acts on trace-free symmetric matrices; dimension (n-1)(n+2)/2.  For
    off-diagonal frame elements B_a, B_b of pairs (p<q), (r<s) and
    trace-free diagonal elements D_m = diag(H[m]):

    * <op(B_a), B_b> = R[p,r,s,q] + R[q,r,s,p];
    * <op(B_a), D_m> = sum_e H[m,e] (R[p,e,e,q] + R[q,e,e,p]) / sqrt(2);
    * <op(D_m), D_m'> = (H K H^T)[m,m'] with K[d,e] = R[d,e,e,d].
    """
    T.require_valid()
    return OperatorMatrix(S2_TRACELESS, T.n, _second_kind_entries(T.components), _owned=True)


class Spectrum(_Record, eq=False):
    """Eigenvalues in ascending order, with degeneracy reporting.

    Construction rejects non-finite values with :class:`CurvopError`.

    ``multiplicities`` groups adjacent eigenvalues whose gap is at most
    ``DEGENERACY_GAP`` times the largest absolute eigenvalue, the scale of
    the k-verdict band; the grouping is for reporting only and feeds no
    numerical decision elsewhere.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _spectra(np.ravel(self.values))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, idx):
        return self.values[idx]

    def min(self) -> float:
        return float(self.values[0])

    def multiplicities(self) -> list[tuple[float, int]]:
        """(representative value, count) per cluster of near-equal eigenvalues."""
        vals = self.values
        cuts = np.flatnonzero(np.diff(vals) > DEGENERACY_GAP * np.max(np.abs(vals), initial=0.0))
        return [(float(c.mean()), c.size) for c in np.split(vals, cuts + 1) if c.size]


def spectrum(M: OperatorMatrix | np.ndarray) -> Spectrum:
    """Eigenvalues of a symmetric operator matrix, ascending.

    Accepts an :class:`OperatorMatrix` or a raw symmetric array, which
    is checked as :class:`OperatorMatrix` checks its entries.
    """
    arr = M.entries if isinstance(M, OperatorMatrix) else _symmetric(M)
    return Spectrum(np.linalg.eigvalsh(arr))


def coordinates(E) -> np.ndarray:
    """Frame coordinates of E, a matrix or a stack of shape (..., n, n).

    Returns shape (..., (n-1)(n+2)/2): the inner products of E with the
    trace-free symmetric frame elements, which are the coordinates of
    E's orthogonal projection onto the trace-free symmetric matrices.
    For trace-free symmetric E the map is an isometry, inverted by
    :func:`reconstruct`.
    """
    if isinstance(E, Sym2Tensor):
        E = E.components
    E = np.asarray(E, dtype=float)
    if E.ndim < 2 or E.shape[-1] != E.shape[-2] or E.shape[-1] < 2:
        raise ValueError(f"expected matrices of shape (..., n, n), n >= 2, got {E.shape}")
    n = E.shape[-1]
    f = _frame(n)
    flat = E.reshape(E.shape[:-2] + (n * n,))
    off = np.take(flat, f.I * n + f.J, axis=-1) + np.take(flat, f.J * n + f.I, axis=-1)
    off /= np.sqrt(2.0)
    diag = np.diagonal(E, axis1=-2, axis2=-1) @ f.H.T
    return np.concatenate([off, diag], axis=-1)


def reconstruct(coeffs, n: int) -> np.ndarray:
    """Trace-free symmetric matrix with the given frame coordinates.

    ``coeffs`` has shape (..., (n-1)(n+2)/2); the result has shape
    (..., n, n).  Inverse of :func:`coordinates`.
    """
    v = np.asarray(coeffs, dtype=float)
    dim = s2_traceless_dim(n)
    if n < 2 or v.ndim < 1 or v.shape[-1] != dim:
        raise ValueError(f"expected {dim} coefficients at n={n}, got shape {v.shape}")
    f = _frame(n)
    E = np.zeros(v.shape[:-1] + (n, n))
    E[..., f.I, f.J] = E[..., f.J, f.I] = v[..., : f.I.size] / np.sqrt(2.0)
    d = np.arange(n)
    E[..., d, d] = v[..., f.I.size:] @ f.H
    return E


def operator_to_json(M: OperatorMatrix) -> dict:
    """Dense JSON export of an operator matrix for external cross-checks."""
    return {
        "domain": M.domain,
        "dim": M.dim,
        "entries": M.entries.tolist(),
    }
