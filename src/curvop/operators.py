"""Curvature operators of the first and second kind as dense matrices.

A curvature tensor acts on two natural spaces of 2-tensors:

* the first kind acts on antisymmetric matrices (dimension n(n-1)/2),
  via  (A |-> sum_{ij} R[i,j,k,l] A[i,j] / 2);
* the second kind acts on trace-free symmetric matrices (dimension
  (n-1)(n+2)/2), as the compression of  S |-> sum_{kl} R[k,i,j,l] S[k,l]
  to the trace-free subspace.

Both are assembled as Gram matrices M[a,b] = <op(B_a), B_b> over an
orthonormal basis B, which makes the compression automatic for the
second kind: restricting the index set to a trace-free orthonormal
family is exactly the orthogonal projection.

On the round sphere of curvature kappa both operators are kappa times
the identity, which calibrates the sign convention and the 1/2 in the
first-kind action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import CurvatureTensor, Sym2Tensor, TracelessSym2

__all__ = [
    "LAMBDA2",
    "S2_FULL",
    "S2_TRACELESS",
    "lambda2_dim",
    "s2_dim",
    "s2_traceless_dim",
    "Sym2Basis",
    "basis_lambda2",
    "basis_s2_full",
    "basis_s2_traceless",
    "OperatorMatrix",
    "first_kind_matrix",
    "sym2_operator_matrix",
    "second_kind_matrix",
    "Spectrum",
    "spectrum",
    "quad_form",
    "coordinates",
    "reconstruct",
    "operator_to_json",
]

LAMBDA2 = "lambda2"
S2_FULL = "s2"
S2_TRACELESS = "s02"

#: Relative gap below which adjacent eigenvalues are reported as degenerate.
DEGENERACY_GAP = 1e-7


def lambda2_dim(n: int) -> int:
    """Dimension of the space of antisymmetric matrices, n(n-1)/2."""
    return n * (n - 1) // 2


def s2_dim(n: int) -> int:
    """Dimension of the space of symmetric matrices, n(n+1)/2."""
    return n * (n + 1) // 2


def s2_traceless_dim(n: int) -> int:
    """Dimension of the space of trace-free symmetric matrices, (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def _freeze(mats: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


@dataclass(frozen=True, eq=False)
class Sym2Basis:
    """Ordered orthonormal basis of a space of symmetric matrices.

    ``traceless`` marks whether the family spans the trace-free subspace
    (every element trace-free) or all of the symmetric matrices.
    Orthonormality is in the Frobenius inner product <A, B> = sum A_ij B_ij.
    """

    n: int
    elements: tuple[np.ndarray, ...]
    traceless: bool

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def stack(self) -> np.ndarray:
        """Elements stacked into a read-only (dim, n, n) array."""
        arr = np.stack(self.elements)
        arr.setflags(write=False)
        return arr

    def gram_defect(self) -> float:
        """Max deviation of the Gram matrix from the identity."""
        g = np.einsum("aij,bij->ab", self.stack, self.stack)
        return float(np.max(np.abs(g - np.eye(self.dim))))

    def max_trace(self) -> float:
        """Largest |trace| over elements (zero for a trace-free family)."""
        return float(np.max(np.abs(np.trace(self.stack, axis1=1, axis2=2))))


@lru_cache(maxsize=None)
def basis_lambda2(n: int) -> tuple[np.ndarray, ...]:
    """Orthonormal basis (e_i e_j^T - e_j e_i^T)/sqrt(2) for i < j, lexicographic."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0 / np.sqrt(2.0)
            m[j, i] = -1.0 / np.sqrt(2.0)
            mats.append(m)
    return _freeze(mats)


def _offdiag_elements(n: int) -> list[np.ndarray]:
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    return mats


@lru_cache(maxsize=None)
def basis_s2_full(n: int) -> Sym2Basis:
    """Orthonormal basis of all symmetric matrices.

    Off-diagonal elements (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j in
    lexicographic order, followed by the diagonal elements e_i e_i^T.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mats = _offdiag_elements(n)
    for i in range(n):
        m = np.zeros((n, n))
        m[i, i] = 1.0
        mats.append(m)
    return Sym2Basis(n=n, elements=_freeze(mats), traceless=False)


@lru_cache(maxsize=None)
def basis_s2_traceless(n: int) -> Sym2Basis:
    """Orthonormal basis of trace-free symmetric matrices.

    The off-diagonal family of :func:`basis_s2_full` followed by the
    n - 1 trace-free diagonal elements

        d_k = diag(1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)),  k = 1..n-1,

    with k ones before the -k.  Any other orthonormal trace-free family
    yields the same operator spectra; this one is a convenient default.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    mats = _offdiag_elements(n)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        mats.append(np.diag(d / np.sqrt(k * (k + 1.0))))
    return Sym2Basis(n=n, elements=_freeze(mats), traceless=True)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense symmetric matrix of a curvature operator in a fixed basis.

    ``domain`` is one of "lambda2", "s2", "s02"; ``basis`` is the family
    the entries refer to (a tuple of matrices for lambda2, a
    :class:`Sym2Basis` otherwise).  Construction rejects matrices that
    are asymmetric beyond 1e-12 relative and stores the exact
    symmetrization.
    """

    domain: str
    entries: np.ndarray
    basis: object = field(repr=False)

    def __post_init__(self):
        if self.domain not in (LAMBDA2, S2_FULL, S2_TRACELESS):
            raise ValueError(f"unknown domain {self.domain!r}")
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator matrix must be square, got {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr)))) if arr.size else 1.0
        skew = float(np.max(np.abs(arr - arr.T)))
        if skew > 1e-12 * scale:
            raise ValueError(
                f"operator matrix asymmetric beyond tolerance: {skew:.3e}"
            )
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        elements = (
            self.basis.elements if isinstance(self.basis, Sym2Basis) else self.basis
        )
        n = elements[0].shape[0]
        expected = {
            LAMBDA2: lambda2_dim(n),
            S2_FULL: s2_dim(n),
            S2_TRACELESS: s2_traceless_dim(n),
        }[self.domain]
        if arr.shape[0] != expected or len(elements) != expected:
            raise ValueError(
                f"matrix dim {arr.shape[0]} (basis size {len(elements)}) does not "
                f"match domain {self.domain!r} at n={n}, expected {expected}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def first_kind_matrix(T: CurvatureTensor) -> OperatorMatrix:
    """Matrix of the curvature operator on antisymmetric matrices.

    Entries M[a,b] = <op(B_a), B_b> with op(A)[k,l] = (1/2) sum_{ij}
    R[i,j,k,l] A[i,j] over the basis of :func:`basis_lambda2`.  In that
    basis the entry for pairs (i<j), (k<l) is just R[i,j,k,l].
    """
    T.require_valid()
    basis = basis_lambda2(T.n)
    B = np.stack(basis)
    acted = 0.5 * np.einsum("ijkl,aij->akl", T.components, B, optimize=True)
    M = np.einsum("akl,bkl->ab", acted, B, optimize=True)
    return OperatorMatrix(domain=LAMBDA2, entries=M, basis=basis)


def sym2_operator_matrix(T: CurvatureTensor, basis: Sym2Basis) -> OperatorMatrix:
    """Gram matrix of  S |-> sum_{kl} R[k,i,j,l] S[k,l]  over a symmetric basis.

    With a trace-free basis this is the curvature operator of the second
    kind (the Gram assembly performs the compression); with the full
    basis it is the uncompressed action on symmetric matrices, whose
    trace equals s/2.
    """
    T.require_valid()
    if basis.n != T.n:
        raise ValueError(
            f"basis dimension n={basis.n} does not match tensor n={T.n}"
        )
    B = basis.stack
    acted = np.einsum("kijl,akl->aij", T.components, B, optimize=True)
    M = np.einsum("aij,bij->ab", acted, B, optimize=True)
    domain = S2_TRACELESS if basis.traceless else S2_FULL
    return OperatorMatrix(domain=domain, entries=M, basis=basis)


def second_kind_matrix(
    T: CurvatureTensor, basis: Sym2Basis | None = None
) -> OperatorMatrix:
    """Matrix of the curvature operator of the second kind.

    Acts on trace-free symmetric matrices; dimension (n-1)(n+2)/2.  A
    custom orthonormal trace-free ``basis`` may be supplied (the
    spectrum does not depend on the choice).
    """
    if basis is None:
        basis = basis_s2_traceless(T.n)
    if not basis.traceless:
        raise ValueError("second_kind_matrix requires a trace-free basis")
    return sym2_operator_matrix(T, basis)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order, with degeneracy reporting.

    ``multiplicities`` groups adjacent eigenvalues whose gap is below
    ``gap_tol`` relative; the grouping is for reporting only and feeds
    no numerical decision elsewhere.
    """

    values: np.ndarray
    gap_tol: float = DEGENERACY_GAP

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).ravel()
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be in ascending order")
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
        out: list[tuple[float, int]] = []
        vals = self.values
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i] - vals[i - 1] > self.gap_tol * max(
                1.0, abs(vals[i]), abs(vals[i - 1])
            ):
                cluster = vals[start:i]
                out.append((float(cluster.mean()), int(i - start)))
                start = i
        return out


def spectrum(M: OperatorMatrix | np.ndarray, gap_tol: float = DEGENERACY_GAP) -> Spectrum:
    """Eigenvalues of a symmetric operator matrix, ascending.

    Accepts an :class:`OperatorMatrix` or a raw symmetric array; raw
    input asymmetric beyond 1e-12 relative is rejected.
    """
    if isinstance(M, OperatorMatrix):
        arr = M.entries
    else:
        arr = np.asarray(M, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr)))) if arr.size else 1.0
        if float(np.max(np.abs(arr - arr.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within tolerance")
    return Spectrum(np.linalg.eigvalsh(arr), gap_tol)


def _traceless_components(E, n: int) -> np.ndarray:
    """Validate and extract trace-free symmetric components from E."""
    if isinstance(E, Sym2Tensor):
        E = E.components
    return TracelessSym2(n, E).components


def quad_form(T: CurvatureTensor, E) -> float:
    """Quadratic form of the second-kind operator: sum R[k,i,j,l] E[k,l] E[i,j].

    Computed directly by index contraction, no basis involved.  Agrees
    with the matrix quadratic form coords(E) . M . coords(E) to 1e-10
    relative; that identity is enforced by the test suite rather than
    recomputed here.
    """
    T.require_valid()
    arr = _traceless_components(E, T.n)
    return float(
        np.einsum("kijl,kl,ij->", T.components, arr, arr, optimize=True)
    )


def coordinates(E, basis: Sym2Basis) -> np.ndarray:
    """Coefficients of a trace-free symmetric E in an orthonormal basis."""
    if not basis.traceless:
        raise ValueError("coordinates expects a trace-free basis")
    arr = _traceless_components(E, basis.n)
    return np.einsum("ij,aij->a", arr, basis.stack)


def reconstruct(coeffs: np.ndarray, basis: Sym2Basis) -> np.ndarray:
    """Matrix with the given coefficients in the basis (inverse of coordinates)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coefficients, got {coeffs.shape}")
    return np.einsum("a,aij->ij", coeffs, basis.stack)


def operator_to_json(M: OperatorMatrix) -> dict:
    """Dense JSON export of an operator matrix for external cross-checks."""
    return {
        "domain": M.domain,
        "dim": M.dim,
        "entries": [[float(x) for x in row] for row in M.entries],
    }
