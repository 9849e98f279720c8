"""Algebraic curvature tensors on Euclidean n-space.

An algebraic curvature tensor is a 4-index array R[i,j,k,l] with the
symmetries of a Riemannian curvature tensor at a point:

* antisymmetry in the first pair:  R[i,j,k,l] = -R[j,i,k,l]
* antisymmetry in the last pair:   R[i,j,k,l] = -R[i,j,l,k]
* pair symmetry:                   R[i,j,k,l] =  R[k,l,i,j]
* first Bianchi identity:          R[i,j,k,l] + R[i,k,l,j] + R[i,l,j,k] = 0

Sign convention. Components are taken in an orthonormal frame with
R[i,j,k,l] = <R(e_i, e_j) e_k, e_l>, signed so that the round sphere of
curvature kappa has

    constant_curvature(n, kappa).components[i, j, i, j] == kappa   (i != j)

and positive-definite curvature operators.  The Ricci tensor is the
contraction Ric[i,j] = sum_k R[k,i,k,j], which gives Ric = (n-1) kappa g
on that sphere, and scalar curvature s = trace(Ric) = n (n-1) kappa.

Everything downstream (operator assembly, eigenvalue bounds, model
spaces) is pinned to this convention.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from operator import itemgetter

import numpy as np

from . import _EXPORTS
from .base import (CurvopError, InvalidTensorError, SchemaError, TraceError, _integer, _Record,
                   _require_tensor, _tensor_header)

__all__ = list(_EXPORTS["core"])

#: Tolerance for the four symmetry residuals, relative to the largest absolute component.
TAU_SYM = 1e-9

#: Relative tolerance for trace-free checks: |tr E| <= TAU_TRACE * ||E||_F.
TAU_TRACE = 1e-12


def _require_finite(values: dict) -> None:
    """Raise :class:`CurvopError` at the first of ``values`` (numbers or arrays) not finite."""
    for what, value in values.items():
        bad = np.asarray(value)[~np.isfinite(value)]
        if bad.size:
            raise CurvopError(
                f"{what} is {float(bad[0])!r}: the tensor is too large to evaluate in "
                "double precision"
            )


class SymmetryReport(_Record):
    """Maximum-entry residuals of the four curvature symmetries.

    ``antisymmetry`` is the worse of the first-pair and last-pair
    residuals.  ``tol`` is the effective tolerance, already scaled to
    the tensor; :attr:`valid` judges the residuals against it.
    """

    antisymmetry: float
    pair_symmetry: float
    first_bianchi: float
    tol: float
    _json_properties = ("verdict",)

    @property
    def max_violation(self) -> float:
        return max(self.antisymmetry, self.pair_symmetry, self.first_bianchi)

    @property
    def valid(self) -> bool:
        """The one validity rule: every residual is within ``tol``, which is finite.

        So a tensor with an infinite or NaN component is never valid.
        """
        return self.max_violation <= self.tol < math.inf

    @property
    def verdict(self) -> str:
        return "valid" if self.valid else "invalid"


def _fingerprint(R: np.ndarray) -> str:
    """Digest of one component array (n, n, n, n), with -0.0 already canonicalized."""
    h = hashlib.sha256()
    h.update(str(R.shape[0]).encode())
    h.update(np.ascontiguousarray(R))  # hashed in place, without a copy as bytes
    return h.hexdigest()[:16]


_AXES = (-4, -3, -2, -1)


def _norm_inf(R: np.ndarray) -> np.ndarray:
    """Largest absolute component of each tensor in a stack (..., n, n, n, n).

    The one scale of every tolerance that judges a tensor, and +0.0 for the
    zero tensor.  Taken as max(max R, -min R): two reductions and no temporary.
    """
    return np.maximum(np.max(R, axis=_AXES), -np.min(R, axis=_AXES)) + 0.0


class CurvatureTensor(_Record, eq=False):
    """Dense curvature tensor with components R[i,j,k,l] in an orthonormal frame.

    Components are stored as a read-only float64 array of shape
    (n, n, n, n).  Construction checks n >= 2 and the shape only; call
    :func:`validate_symmetries` (or :meth:`require_valid`) to test the
    symmetries themselves.
    """

    n: int
    components: np.ndarray
    # Private: True hands over a fresh float64 array that no caller holds,
    # which is then adopted rather than copied.
    _owned: bool = False

    def __post_init__(self, _owned):
        object.__setattr__(self, "n", _integer("dimension n", self.n, 2))
        arr = self.components if _owned else np.array(self.components, dtype=float)
        if arr.shape != (self.n,) * 4:
            raise ValueError(
                f"component array has shape {arr.shape}, expected {(self.n,) * 4}"
            )
        arr += 0.0  # canonicalize -0.0 so fingerprints are serialization-stable
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @cached_property
    def symmetry_report(self) -> SymmetryReport:
        return validate_symmetries(self)

    def require_valid(self) -> "CurvatureTensor":
        """Return self, raising :class:`InvalidTensorError` if the symmetries fail."""
        if not self.symmetry_report.valid:
            raise InvalidTensorError(self.symmetry_report)
        return self

    @cached_property
    def fingerprint(self) -> str:
        """Stable 16-hex-digit digest of (n, components) for report provenance."""
        return _fingerprint(self.components)

    def norm_inf(self) -> float:
        """Largest absolute component, the scale of every tolerance that judges the tensor."""
        return float(_norm_inf(self.components))

    def __add__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("cannot add curvature tensors of different dimension")
        return CurvatureTensor(self.n, self.components + other.components, _owned=True)

    def __mul__(self, a: float) -> "CurvatureTensor":
        if not isinstance(a, (int, float, np.floating, np.integer)):
            return NotImplemented
        return CurvatureTensor(self.n, float(a) * self.components, _owned=True)

    __rmul__ = __mul__

    def __neg__(self) -> "CurvatureTensor":
        return CurvatureTensor(self.n, -self.components, _owned=True)


class Sym2Tensor(_Record, eq=False):
    """Symmetric 2-tensor stored canonically: components[i,j] == components[j,i] exactly.

    Input must be finite and already symmetric to within 1e-8 relative;
    the stored array is the exact symmetrization (A + A.T)/2.
    """

    n: int
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("dimension n", self.n, 1))
        arr = np.array(self.components, dtype=float)
        if arr.shape != (self.n, self.n):
            raise ValueError(
                f"component array has shape {arr.shape}, expected {(self.n, self.n)}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("input has a non-finite component")
        skew = float(np.max(np.abs(arr - arr.T), initial=0.0))
        if skew > 1e-8 * np.max(np.abs(arr), initial=0.0):
            raise ValueError(f"input is not symmetric: max |A - A.T| = {skew:.3e}")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    def trace(self) -> float:
        return float(np.trace(self.components))

    def frobenius(self) -> float:
        """The Frobenius norm, summed by ``hypot`` so that it cannot underflow at tiny scales."""
        return float(np.hypot.reduce(self.components.ravel()))


class TracelessSym2(Sym2Tensor, eq=False):
    """Symmetric 2-tensor constrained to be trace-free.

    Raises :class:`TraceError` when |trace| > TAU_TRACE * ||.||_F.
    """

    def __post_init__(self):
        super().__post_init__()
        tr = abs(self.trace())
        if tr > TAU_TRACE * self.frobenius():
            raise TraceError(
                f"tensor is not trace-free: |trace| = {tr:.3e} exceeds "
                f"{TAU_TRACE:.1e} * ||.||_F"
            )


#: Symmetry validation walks a stack in slabs of the tensors' first index of
#: at most this many bytes (or one index), which bounds its temporaries.
_SLAB_BYTES = 1 << 20


def _symmetry_residuals(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(antisymmetry, pair symmetry, first Bianchi) maxima of each tensor in a stack.

    ``R`` has shape (..., n, n, n, n); each residual has shape (...).  The
    four sums are formed one slab of the first index i at a time.
    """
    def sums(s):
        Ri = R[..., s, :, :, :]
        yield Ri + np.swapaxes(R[..., :, s, :, :], -4, -3)  # + R[j,i,k,l]
        yield Ri + np.swapaxes(Ri, -2, -1)  # + R[i,j,l,k]
        yield Ri - np.moveaxis(R[..., :, :, s, :], (-4, -3), (-2, -1))  # - R[k,l,i,j]
        # Cyclic sum over the last three slots: R[i,j,k,l] + R[i,k,l,j] + R[i,l,j,k].
        yield Ri + np.moveaxis(Ri, -1, -3) + np.moveaxis(Ri, -3, -1)

    n = R.shape[-1]
    step = max(1, _SLAB_BYTES // (R.nbytes // n))
    worst = None
    for start in range(0, n, step):
        here = [np.max(np.abs(X, out=X), axis=_AXES) for X in sums(slice(start, start + step))]
        worst = here if worst is None else list(map(np.maximum, worst, here))
    anti_first, anti_last, pair, bianchi = worst
    return np.maximum(anti_first, anti_last), pair, bianchi


def _symmetry_reports(R: np.ndarray) -> list[SymmetryReport]:
    """The :class:`SymmetryReport` of each tensor of a stack (B, n, n, n, n).

    Each tolerance is ``TAU_SYM`` times its tensor's largest absolute
    component.  A non-finite component makes an invalid report, silently.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        residuals = _symmetry_residuals(R)
    return [SymmetryReport(*map(float, r)) for r in zip(*residuals, TAU_SYM * _norm_inf(R))]


def _require_valid_stack(R: np.ndarray) -> None:
    """Raise :class:`InvalidTensorError` with the report of the first invalid tensor of a stack."""
    for report in _symmetry_reports(R):
        if not report.valid:
            raise InvalidTensorError(report)


def validate_symmetries(T: CurvatureTensor) -> SymmetryReport:
    """The residuals of the four defining symmetries of ``T``, with their tolerance.

    The stack-of-one case of :func:`_symmetry_reports`; the tolerance is
    ``TAU_SYM * T.norm_inf()``, the scale the bound checks use.
    """
    return _symmetry_reports(T.components[None])[0]


def _ricci(R: np.ndarray) -> np.ndarray:
    """Ricci tensors of a stack (..., n, n, n, n), each made exactly symmetric.

    An entry that overflows a double comes out infinite, without a warning.
    """
    with np.errstate(over="ignore"):
        ric = np.einsum("...kikj->...ij", R)
        return (ric + np.swapaxes(ric, -1, -2)) / 2.0


def ricci(T: CurvatureTensor) -> Sym2Tensor:
    """Ricci tensor Ric[i,j] = sum_k R[k,i,k,j] of a valid curvature tensor.

    Raises :class:`CurvopError` when an entry overflows a double.
    """
    T.require_valid()
    ric = _ricci(T.components)
    _require_finite({"Ricci component": ric})
    return Sym2Tensor(T.n, ric)


def scalar(T: CurvatureTensor) -> float:
    """Scalar curvature, the trace of the Ricci tensor."""
    return ricci(T).trace()


def _trace_free(ric: np.ndarray) -> TracelessSym2:
    """Trace-free part ric - (tr ric / n) g of a symmetric n x n matrix."""
    n = ric.shape[-1]
    E = ric - (np.trace(ric) / n) * np.eye(n)
    # One more exact projection step kills the O(eps * s) rounding residue
    # so the TracelessSym2 invariant holds even for large-scale tensors.
    E = E - (np.trace(E) / n) * np.eye(n)
    return TracelessSym2(n, E)


#: The orbit of (i, j, k, l, v) under the three linear symmetries: for each
#: member, the index slots it takes from (i, j, k, l) and its sign, in the
#: order the loader writes them.  The first write of a component wins.
_ORBIT = (
    ((0, 1, 2, 3), 1.0),
    ((1, 0, 2, 3), -1.0),
    ((0, 1, 3, 2), -1.0),
    ((1, 0, 3, 2), 1.0),
    ((2, 3, 0, 1), 1.0),
    ((3, 2, 0, 1), -1.0),
    ((2, 3, 1, 0), -1.0),
    ((3, 2, 1, 0), 1.0),
)


def _flat(idx, slots, n: int) -> np.ndarray:
    """Row-major flat index of the components (idx[s] for s in slots).

    ``idx`` holds four index arrays, one per slot (i, j, k, l).
    """
    a, b, c, d = (idx[s] for s in slots)
    return ((a * n + b) * n + c) * n + d


def _heads(n: int) -> tuple:
    """The orbit heads (i, j, k, l): i < j, k < l, (i, j) <= (k, l), in row-major order."""
    i, j = np.triu_indices(n, 1)
    p, q = np.triu_indices(i.size)
    return i[p], j[p], i[q], j[q]


def _scatter(R: np.ndarray, idx, v: np.ndarray, pick=slice(None)) -> np.ndarray:
    """R (..., n, n, n, n) with the orbit of each index (idx[pick]) written from v[..., pick].

    Members go last to first, so a component keeps the value of its first write.
    Stacks are indexed transposed, which keeps numpy on its fast 1-D path.
    """
    flat = R.reshape(R.shape[:-4] + (-1,)).T
    for slots, s in reversed(_ORBIT):
        flat[_flat(idx, slots, R.shape[-1])[pick]] = s * v.T[pick]
    return R


def _kn_heads(h: np.ndarray, k: np.ndarray, heads) -> np.ndarray:
    """Kulkarni-Nomizu product of stacks of matrices (..., n, n) at the orbit heads."""
    i, j, a, b = heads
    out = h[..., i, a] * k[..., j, b]
    out += h[..., j, b] * k[..., i, a]
    out -= h[..., i, b] * k[..., j, a]
    out -= h[..., j, a] * k[..., i, b]
    return out


def kulkarni_nomizu(h: np.ndarray | Sym2Tensor, k: np.ndarray | Sym2Tensor) -> CurvatureTensor:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (h ^ k)[i,j,k,l] = h[i,k] k[j,l] + h[j,l] k[i,k] - h[i,l] k[j,k] - h[j,k] k[i,l]

    is computed at the orbit heads i < j, k < l, (i, j) <= (k, l), and
    every other component is exactly its head's value or its negative, so
    the two antisymmetries and pair symmetry hold exactly; the first
    Bianchi identity holds when h and k are symmetric.  With g the
    identity, (kappa/2) (g ^ g) is the constant-curvature tensor.
    """
    H = h.components if isinstance(h, Sym2Tensor) else np.asarray(h, dtype=float)
    K = k.components if isinstance(k, Sym2Tensor) else np.asarray(k, dtype=float)
    if H.ndim != 2 or H.shape != K.shape or H.shape[0] != H.shape[1]:
        raise ValueError("kulkarni_nomizu needs two square matrices of equal shape")
    n = H.shape[0]
    R = np.zeros((n,) * 4)  # first, so a size too large to allocate fails before the heads
    heads = _heads(n)
    return CurvatureTensor(n, _scatter(R, heads, _kn_heads(H, K, heads)), _owned=True)


def _random_stack(rngs, n: int, terms) -> np.ndarray:
    """A stack of random curvature tensors, tensor b drawn from generator rngs[b].

    With rngs[b] = ``np.random.default_rng(seed)``, tensor b is bitwise
    ``random_curvature(seed, n, terms[b])``, and the generator is left just
    past its terms[b] * n^2 normals.  Tensor b is sum_a eps_a (h_ba ^ h_ba)
    over a < terms[b], eps = +1, -1, +1, ..., summed at the orbit heads.
    The terms are zero-padded to max(terms), but a padding term is skipped,
    not added, so each tensor is bitwise the one drawn alone.
    """
    raw = np.zeros((len(rngs), max(terms), n, n))
    for b, (rng, m) in enumerate(zip(rngs, terms)):
        raw[b, :m] = rng.normal(size=(m, n, n))
    h = np.triu(raw) + np.swapaxes(np.triu(raw, 1), -1, -2)
    R = np.zeros((len(rngs),) + (n,) * 4)
    heads, terms = _heads(n), np.asarray(terms)
    total = _kn_heads(h[:, 0], h[:, 0], heads)
    for a in range(1, h.shape[1]):
        rows = np.flatnonzero(terms > a)
        square = _kn_heads(h[rows, a], h[rows, a], heads)
        total[rows] += square if a % 2 == 0 else -square
    _scatter(R, heads, total)
    R += 0.0  # canonicalize -0.0, as CurvatureTensor does
    return R


def random_curvature(seed: int, n: int, terms: int = 3) -> CurvatureTensor:
    """Seeded random curvature tensor: an alternating sum of KN squares.

    Draws ``terms`` symmetric matrices h_a with iid standard normal
    entries (upper triangle mirrored) from ``np.random.default_rng(seed)``
    and returns  sum_a eps_a (h_a ^ h_a)  with eps alternating +1, -1,
    +1, ...  It is summed at the orbit heads and written out from them, so
    the two antisymmetries and pair symmetry hold exactly, the tensor is
    exactly what :func:`tensor_to_json` stores, and it is bitwise
    reproducible for a fixed seed.
    Raises :class:`ValueError` unless seed >= 0, n >= 2 and terms >= 1,
    and before anything is drawn when what a command holds for the tensor
    (``base._require_tensor``) and the draws (``terms`` n x n matrices, held
    in four buffers while they are mirrored) would not fit in physical memory.
    """
    seed, n = _integer("seed", seed, 0), _integer("dimension n", n, 2)
    terms = _integer("terms", terms, 1)
    _require_tensor("a random tensor", n, 4 * 8 * terms * n * n)
    return CurvatureTensor(n, _random_stack([np.random.default_rng(seed)], n, [terms])[0],
                           _owned=True)


# ---------------------------------------------------------------------------
# JSON tensor interchange
#
# Schema: {"n": int, "entries": [{"i": int, "j": int, "k": int, "l": int,
# "v": float}, ...]} with 0-based indices.  Only a generating set of
# components needs to be listed; the loader completes the orbit of each
# entry under the three linear symmetries.  The first entry of an orbit
# sets its components; every later entry of that orbit, and every entry
# with i == j or k == l (which so must be 0), must agree with them within
# 1e-12 * |v|, and the first entry that disagrees is named in the error.
# (The first Bianchi identity is not implied by the schema; validate after
# loading.)
# ---------------------------------------------------------------------------


def tensor_to_json(T: CurvatureTensor) -> dict:
    """Serialize to the entry-list schema, listing one representative per orbit.

    Representatives are the nonzero orbit heads (see :func:`_heads`), in row-major order.
    """
    heads = _heads(T.n)
    v = T.components.reshape(-1)[_flat(heads, range(4), T.n)]
    keep = v != 0.0
    cols = [x[keep].tolist() for x in (*heads, v)]
    del heads, v, keep
    return {"n": T.n, "entries": [{"i": i, "j": j, "k": k, "l": l, "v": x}
                                  for i, j, k, l, x in zip(*cols)]}


#: The entry fields as columns: key, the exact types accepted, array dtype.
_COLUMNS = tuple((key, {int}, np.int64) for key in "ijkl") + (("v", {int, float}, float),)


def _entry(pos: int, e, n: int) -> tuple:
    """Entry ``pos`` as (i, j, k, l, v); raises the SchemaError naming its first fault."""
    if not isinstance(e, dict):
        raise SchemaError(f"entry {pos} is not an object")
    try:
        idx = tuple(e[key] for key in ("i", "j", "k", "l"))
        v = e["v"]
    except KeyError as missing:
        raise SchemaError(f"entry {pos} is missing key {missing}") from None
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in idx):
        raise SchemaError(f"entry {pos} has non-integer indices {idx!r}")
    if not all(0 <= x < n for x in idx):
        raise SchemaError(f"entry {pos} has index out of range for n={n}: {idx!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"entry {pos} has non-numeric value {v!r}")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"entry {pos} has non-finite value")
    return (*idx, v)


def _columns(entries: list, n: int):
    """(idx, v, fault): four int64 index arrays and a float64 value array.

    They hold the entries before the first malformed one, whose
    SchemaError is ``fault`` (None when every entry is well-formed).
    """
    if set(map(type, entries)) <= {dict}:
        cols = []
        try:
            for key, types, dtype in _COLUMNS:
                col = list(map(itemgetter(key), entries))
                if not set(map(type, col)) <= types:
                    break
                cols.append(np.array(col, dtype=dtype))
        except (KeyError, OverflowError):
            pass
        if len(cols) == 5:
            *idx, v = cols
            in_range = all(a.min(initial=0) >= 0 and a.max(initial=0) < n for a in idx)
            if in_range and np.isfinite(v).all():
                return idx, v, None
    # The error path, also taken by subclasses of dict, int or float: check
    # the entries one by one up to the first bad one.
    rows, fault = [], None
    try:
        for pos, e in enumerate(entries):
            rows.append(_entry(pos, e, n))
    except SchemaError as bad:
        fault = bad
    idx = list(np.array([r[:4] for r in rows], dtype=np.int64).reshape(-1, 4).T)
    return idx, np.array([r[4] for r in rows], dtype=float), fault


def _fill(R: np.ndarray, entries: list) -> None:
    """Write the orbit of every entry into the zero array R, or raise at the first bad entry."""
    n = R.shape[0]
    idx, v, fault = _columns(entries, n)
    # An orbit class is keyed by its two sorted index pairs; its head is its
    # first entry.  Every head writes its whole class, members last to first,
    # so each component keeps the value of its first write, as an
    # entry-by-entry fill would.  Temporaries go as soon as they are used,
    # since this runs beside the dense tensor and the entry columns.
    i, j, k, l = idx
    p = np.minimum(i, j) * n + np.maximum(i, j)
    q = np.minimum(k, l) * n + np.maximum(k, l)
    key = np.minimum(p, q) * (n * n) + np.maximum(p, q)
    del p, q
    heads = np.unique(key, return_index=True)[1]
    del key
    _scatter(R, idx, v, heads)
    del heads
    flat = R.reshape(-1)

    # Each entry's eight signed writes must agree with what its class head
    # wrote; a head with i == j or k == l meets its own first write there.
    # conflict[e] is 1 + the first _ORBIT member where entry e disagrees, or 0.
    conflict = np.zeros(v.size, dtype=np.int8)
    tol = 1e-12 * np.abs(v)
    with np.errstate(over="ignore"):
        for member in reversed(range(len(_ORBIT))):
            slots, s = _ORBIT[member]
            gap = flat[_flat(idx, slots, n)] - s * v
            conflict[np.abs(gap, out=gap) > tol] = member + 1
    bad = np.flatnonzero(conflict)
    if bad.size:  # a conflict comes before the malformed entry
        pos = int(bad[0])
        slots, s = _ORBIT[conflict[pos] - 1]
        at = tuple(int(idx[t][pos]) for t in slots)
        raise SchemaError(
            f"entry {pos} conflicts with an earlier entry at component "
            f"({','.join(map(str, at))}): {float(R[at])!r} vs {s * float(v[pos])!r}"
        )
    if fault is not None:
        raise fault


def tensor_from_json(obj: dict) -> CurvatureTensor:
    """Build a tensor from the entry-list schema, completing by symmetry.

    Raises :class:`SchemaError` on missing keys, an "n" that is not an
    integer >= 2, out-of-range indices, values that are not finite
    numbers, or entries whose symmetry orbits assign conflicting values
    (disagreement beyond 1e-12 * |v|).  The first offending entry is the
    one reported, after any fault of the header (``base._tensor_header``).
    Raises :class:`ValueError` when what a command holds for the tensor
    (``base._require_tensor``) would not fit in physical memory.
    """
    n, entries = _tensor_header(obj)
    # Allocated first: a size too large to allocate fails here, before the
    # int64 flat indices could overflow.
    R = np.zeros((n, n, n, n))
    _fill(R, entries)
    return CurvatureTensor(n, R, _owned=True)
