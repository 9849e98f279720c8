"""Independent brute-force implementations used as test oracles.

Most of this is written with explicit Python loops, a generic LP
solver, or dense contractions over explicit basis stacks, deliberately
avoiding the index-gather code paths under test.  Slow but unambiguous.
The rest, from ``greedy_weights`` on, is paper arithmetic that only
tests compare against.
"""

from functools import lru_cache
from math import floor

import numpy as np
from scipy.optimize import linprog

from curvop import (
    CurvatureTensor,
    SchemaError,
    Sym2Tensor,
    TracelessSym2,
    WeightClass,
    greedy_min,
    kulkarni_nomizu,
    random_curvature,
    ricci,
    s2_traceless_dim,
    second_kind_matrix,
)
from curvop.core import _trace_free
from curvop.weighted import _ascending


def loop_symmetry_residuals(R):
    """(antisymmetry, pair symmetry, first Bianchi) maxima by quadruple loop."""
    n = R.shape[0]
    anti = pair = bianchi = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    anti = max(
                        anti,
                        abs(R[i, j, k, l] + R[j, i, k, l]),
                        abs(R[i, j, k, l] + R[i, j, l, k]),
                    )
                    pair = max(pair, abs(R[i, j, k, l] - R[k, l, i, j]))
                    bianchi = max(
                        bianchi,
                        abs(R[i, j, k, l] + R[i, k, l, j] + R[i, l, j, k]),
                    )
    return anti, pair, bianchi


def dense_symmetry_residuals(R):
    """(antisymmetry, pair symmetry, first Bianchi) maxima of each tensor in a stack.

    ``R`` has shape (..., n, n, n, n).  Each sum is one whole n^4 array,
    with no slabs: the reference for ``core._symmetry_residuals``.
    """
    def worst(X):
        return np.max(np.abs(X), axis=(-4, -3, -2, -1))

    anti_first = worst(R + np.swapaxes(R, -4, -3))
    anti_last = worst(R + np.swapaxes(R, -2, -1))
    pair = worst(R - np.swapaxes(np.swapaxes(R, -4, -2), -3, -1))
    bianchi = worst(R + np.moveaxis(R, -1, -3) + np.moveaxis(R, -3, -1))
    return np.maximum(anti_first, anti_last), pair, bianchi


def _loop_orbit(i, j, k, l, v):
    yield i, j, k, l, v
    yield j, i, k, l, -v
    yield i, j, l, k, -v
    yield j, i, l, k, v
    yield k, l, i, j, v
    yield l, k, i, j, -v
    yield k, l, j, i, -v
    yield l, k, j, i, v


def loop_tensor_to_json(T):
    """Entry list of one representative per orbit, by quadruple loop."""
    R = T.components
    entries = []
    for i in range(T.n):
        for j in range(i + 1, T.n):
            for k in range(T.n):
                for l in range(k + 1, T.n):
                    if (k, l) < (i, j):
                        continue
                    v = R[i, j, k, l]
                    if v != 0.0:
                        entries.append(
                            {"i": i, "j": j, "k": k, "l": l, "v": float(v)}
                        )
    return {"n": T.n, "entries": entries}


def loop_tensor_from_json(obj):
    """Entry-list loader that fills each entry's orbit one component at a time.

    Its conflict messages print the stored component as numpy renders it
    (``np.float64(2.5)`` under numpy 2), and it accepts non-finite values.
    """
    if not isinstance(obj, dict):
        raise SchemaError("tensor document must be a JSON object")
    try:
        n = obj["n"]
        entries = obj["entries"]
    except KeyError as missing:
        raise SchemaError(f"tensor document is missing key {missing}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SchemaError(f'"n" must be an integer >= 2, got {n!r}')
    if not isinstance(entries, list):
        raise SchemaError('"entries" must be a list')

    R = np.zeros((n, n, n, n))
    seen = np.zeros((n, n, n, n), dtype=bool)
    for pos, e in enumerate(entries):
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
            raise SchemaError(
                f"entry {pos} has index out of range for n={n}: {idx!r}"
            )
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"entry {pos} has non-numeric value {v!r}")
        v = float(v)
        for a, b, c, d, w in _loop_orbit(*idx, v):
            if seen[a, b, c, d]:
                if abs(R[a, b, c, d] - w) > 1e-12 * abs(w):
                    raise SchemaError(
                        f"entry {pos} conflicts with an earlier entry at "
                        f"component ({a},{b},{c},{d}): "
                        f"{R[a, b, c, d]!r} vs {w!r}"
                    )
            else:
                seen[a, b, c, d] = True
                R[a, b, c, d] = w
    return CurvatureTensor(n, R)


def loop_ricci(R):
    n = R.shape[0]
    ric = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ric[i, j] = sum(R[k, i, k, j] for k in range(n))
    return ric


def slice_ricci(R):
    """Ricci by explicit slice summation, a second vectorized route."""
    n = R.shape[0]
    return sum(R[k, :, k, :] for k in range(n))


def loop_scalar(R):
    return float(np.trace(loop_ricci(R)))


def loop_kulkarni_nomizu(h, k):
    n = h.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    out[i, j, a, b] = (
                        h[i, a] * k[j, b]
                        + h[j, b] * k[i, a]
                        - h[i, b] * k[j, a]
                        - h[j, a] * k[i, b]
                    )
    return out


def loop_first_kind_action(R, A):
    """op(A)[k,l] = (1/2) sum_{ij} R[i,j,k,l] A[i,j]."""
    n = R.shape[0]
    out = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            out[k, l] = 0.5 * sum(
                R[i, j, k, l] * A[i, j] for i in range(n) for j in range(n)
            )
    return out


def loop_second_kind_action(R, S):
    """op(S)[i,j] = sum_{kl} R[k,i,j,l] S[k,l], before trace-free compression."""
    n = R.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(
                R[k, i, j, l] * S[k, l] for k in range(n) for l in range(n)
            )
    return out


def loop_basis_lambda2(n):
    """(e_i e_j^T - e_j e_i^T)/sqrt(2) for i < j, lexicographic, as an (N, n, n) stack."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0 / np.sqrt(2.0)
            m[j, i] = -1.0 / np.sqrt(2.0)
            mats.append(m)
    return np.stack(mats)


def loop_basis_s2(n, traceless=True):
    """Orthonormal basis of the (trace-free) symmetric matrices as an (N, n, n) stack.

    (e_i e_j^T + e_j e_i^T)/sqrt(2) for i < j, lexicographic, followed by
    either the n - 1 trace-free diagonal elements
    diag(1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)), k = 1..n-1, with k
    ones before the -k, or (``traceless=False``) the n elements e_i e_i^T.
    """
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    if traceless:
        for k in range(1, n):
            d = np.zeros(n)
            d[:k] = 1.0
            d[k] = -float(k)
            mats.append(np.diag(d / np.sqrt(k * (k + 1.0))))
    else:
        for i in range(n):
            m = np.zeros((n, n))
            m[i, i] = 1.0
            mats.append(m)
    return np.stack(mats)


def gram_first_kind(R, B):
    """M[a,b] = <op(B_a), B_b>, op(A)[k,l] = (1/2) sum_ij R[i,j,k,l] A[i,j], over a stack B."""
    acted = 0.5 * np.einsum("ijkl,aij->akl", R, B, optimize=True)
    return np.einsum("akl,bkl->ab", acted, B, optimize=True)


def gram_second_kind(R, B):
    """M[a,b] = <op(B_a), B_b>, op(S)[i,j] = sum_kl R[k,i,j,l] S[k,l], over a stack B."""
    acted = np.einsum("kijl,akl->aij", R, B, optimize=True)
    return np.einsum("aij,bij->ab", acted, B, optimize=True)


def loop_quad_form(R, E):
    n = R.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += R[k, i, j, l] * E[k, l] * E[i, j]
    return total


def lp_weight_min(lam, omega, total):
    """Minimum of lam . w over {0 <= w <= omega, sum w = total} via linprog."""
    lam = np.asarray(lam, dtype=float)
    N = lam.size
    res = linprog(
        c=lam,
        A_eq=np.ones((1, N)),
        b_eq=[total],
        bounds=[(0.0, omega)] * N,
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


@lru_cache(maxsize=8)
def _grid_axes(N: int, steps: int):
    axes = np.meshgrid(*([np.arange(steps + 1)] * (N - 1)), indexing="ij")
    head = np.stack([a.ravel() for a in axes])  # (N-1, (steps+1)^(N-1))
    head_sum = head.sum(axis=0)
    return head, head_sum


def grid_min(lam, cls, steps: int = 100) -> float:
    """Exhaustive minimum over the grid w_i in {0, omega/steps, ..., omega}.

    Brute-force oracle for small N (N <= 4).  ``lam`` is ascending and
    ``cls`` a WeightClass.  The total must sit on the grid:
    total/(omega/steps) must be an integer within 1e-9.
    """
    arr = np.asarray(lam, dtype=float).ravel()
    N = arr.size
    if N > 4:
        raise ValueError("grid_min is an oracle for N <= 4 only")
    cls.require_admissible(N)
    step = cls.omega / steps
    j_float = cls.total / step
    j = int(round(j_float))
    if abs(j_float - j) > 1e-9 * max(1.0, j_float):
        raise ValueError("total is not on the weight grid")
    if N == 1:
        if j != steps:
            raise ValueError("total must equal omega for N = 1")
        return float(cls.omega * arr[0])
    head, head_sum = _grid_axes(N, steps)
    last = j - head_sum
    feasible = (last >= 0) & (last <= steps)
    dots = arr[:-1] @ head[:, feasible] + arr[-1] * last[feasible]
    return float(step * dots.min())


def cylinder_n3(a: float, b: float) -> CurvatureTensor:
    """h ^ h / 2 with h = diag(a, b, 0) and ab > 0: a surface of curvature ab times a line.

    An equality case at n = 3: both Ricci bounds and the quadratic-form
    check sit at margin 0, or a rounding error from it (about -2e-16 * ab).
    """
    if not a * b > 0.0:
        raise ValueError(f"the cylinder needs ab > 0, got a={a!r}, b={b!r}")
    h = np.diag([a, b, 0.0])
    return 0.5 * kulkarni_nomizu(h, h)


def fuzz_trial_seed(seed: int, idx: int) -> int:
    """The 64-bit seed of fuzz trial ``idx`` of a campaign with ``seed``."""
    return int(np.random.SeedSequence([seed, idx]).generate_state(1, np.uint64)[0])


def fuzz_trial(idx: int, n: int, seed: int, e_per_tensor: int, tol_base: float) -> dict:
    """One fuzz trial on its own: its tensor and unit probes through all five checks.

    The per-trial reference for the batched fuzz engine.  It builds each
    probe from its frame coordinates over :func:`loop_basis_s2`, assembles
    through the public API, eigensolves one matrix, and contracts with
    ``np.einsum``.  Returns plain floats: per check the worst margin over
    the probes and the tolerance at that probe.
    """
    trial_seed = fuzz_trial_seed(seed, idx)
    terms = 1 + idx % 3
    T = random_curvature(trial_seed, n, terms=terms)
    matrix = second_kind_matrix(T).entries
    lam, eigvecs = np.linalg.eigh(matrix)
    ric = ricci(T)
    ric_min = float(np.linalg.eigvalsh(ric.components)[0])
    s = ric.trace()
    scale = T.norm_inf()
    tol = tol_base * scale

    # The trial's one generator draws the tensor's terms * n^2 normals, then
    # each probe's coordinates in the orthonormal trace-free frame, scaled
    # to unit norm.  The probe is sum_a C[:, a] B_a over the frame B of
    # loop_basis_s2: an off-diagonal element sets one pair, and the diagonal
    # is the coordinates of the Helmert elements times their diagonals.  The
    # division by sqrt(2) and the one product keep each probe bitwise the
    # engine's, so margins compare to rounding in the contractions alone.
    rng = np.random.default_rng(trial_seed)
    rng.normal(size=(terms, n, n))
    C = rng.standard_normal((e_per_tensor, s2_traceless_dim(n)))
    C /= np.sqrt(np.einsum("ai,ai->a", C, C))[:, None]
    p = n * (n - 1) // 2
    Eb = np.zeros((e_per_tensor, n, n))
    for a, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        Eb[:, i, j] = Eb[:, j, i] = C[:, a] / np.sqrt(2.0)
    d = np.arange(n)
    Eb[:, d, d] = C[:, p:] @ np.diagonal(loop_basis_s2(n)[p:], axis1=1, axis2=2)

    def g(omega, total):
        return greedy_min(lam, WeightClass(omega, total))

    q_idx = np.einsum("kijl,akl,aij->a", T.components, Eb, Eb, optimize=True)
    q_mat = np.einsum("ab,bc,ac->a", C, matrix, C, optimize=True)
    W = C @ eigvecs
    q_eig = (W * W) @ lam
    nsq = np.sum(Eb * Eb, axis=(1, 2))
    ric_term = np.einsum("ij,ait,ajt->a", ric.components, Eb, Eb, optimize=True)
    denom = np.maximum(np.abs(q_idx), scale * nsq)
    tol_e = tol * nsq
    checks = {
        "scalar_lower_bound": (
            s, (2.0 * n / (n + 2.0)) * g(1.0, float(s2_traceless_dim(n))), tol),
        "ricci_lower_bound": (
            ric_min, ((n - 1.0) / (n + 1.0)) * g(1.0, float(n)) + s / (n * (n + 1.0)), tol),
        "ricci_combined_bound": (ric_min, g(n / (n + 2.0), n - 1.0), tol),
        "quadform_lower_bound": (q_idx, g(1.0, 1.0) * nsq, tol_e),
        "bochner_lower_bound": (
            q_idx + ric_term, g(2.0 * (n + 1.0) / (n + 2.0), float(n)) * nsq, tol_e),
    }
    margins, tols = {}, {}
    for name, (lhs, rhs, eff) in checks.items():
        margin = lhs - rhs
        if np.ndim(margin):
            worst = margin.argmin()
            margin, eff = margin[worst], eff[worst]
        margins[name] = float(margin)
        tols[name] = float(eff)
    return {
        "idx": idx,
        "n": n,
        "trial_seed": trial_seed,
        "terms": terms,
        "fingerprint": T.fingerprint,
        "scale": scale,
        "tols": tols,
        "margins": margins,
        "quad_rel": float(np.max(np.abs(q_idx - q_mat) / denom)),
        "eig_rel": float(np.max(np.abs(q_idx - q_eig) / denom)),
    }


def fuzz_trials(seed: int, items, e_per_tensor: int, tol_base: float) -> list[dict]:
    """:func:`fuzz_trial` for each (idx, n) of ``items``, in order."""
    return [fuzz_trial(idx, n, seed, e_per_tensor, tol_base) for idx, n in items]


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


def quad_form(T: CurvatureTensor, E) -> float:
    """Quadratic form of the second-kind operator: sum R[k,i,j,l] E[k,l] E[i,j].

    Computed directly by index contraction, no frame involved.  Agrees
    with the matrix quadratic form coordinates(E) . M . coordinates(E) to 1e-10
    relative; that identity is enforced by the test suite rather than
    recomputed here.
    """
    T.require_valid()
    if isinstance(E, Sym2Tensor):
        E = E.components
    arr = TracelessSym2(T.n, E).components
    return float(
        np.einsum("kijl,kl,ij->", T.components, arr, arr, optimize=True)
    )


def traceless_ricci(T: CurvatureTensor) -> TracelessSym2:
    """Trace-free part of the Ricci tensor: Ric - (s/n) g."""
    return _trace_free(ricci(T).components)


def random_traceless(
    n: int, rng: np.random.Generator | int, unit: bool = False
) -> TracelessSym2:
    """Random trace-free symmetric 2-tensor with normal entries.

    ``rng`` may be a Generator or an integer seed.  With ``unit=True``
    the result is scaled to Frobenius norm 1.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    raw = rng.normal(size=(n, n))
    sym = (raw + raw.T) / 2.0
    E = sym - (np.trace(sym) / n) * np.eye(n)
    if unit:
        nrm = np.linalg.norm(E)
        if nrm == 0.0:
            raise ValueError("degenerate zero draw cannot be normalized")
        E = E / nrm
    return TracelessSym2(n, E)


def _ricci_constant(params: dict) -> np.ndarray:
    n, kappa = params["n"], params["kappa"]
    return (n - 1) * kappa * np.eye(n)


def _ricci_product(params: dict) -> np.ndarray:
    p, q, r1, r2 = params["p"], params["q"], params["r1"], params["r2"]
    diag = [(p - 1) / r1**2] * p + [(q - 1) / r2**2] * q
    return np.diag(diag)


def _ricci_fubini(params: dict) -> np.ndarray:
    m = params["m"]
    return (2 * m + 2) * np.eye(2 * m)


_RICCI = {
    "constant_curvature": _ricci_constant,
    "product_spheres": _ricci_product,
    "fubini_study": _ricci_fubini,
}


def expected_ricci(spec) -> np.ndarray:
    """Closed-form Ricci tensor of a ``ModelSpec``, for cross-checks."""
    return _RICCI[spec.kind](spec.params)
