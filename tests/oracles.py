"""Independent brute-force implementations used as test oracles.

Everything here is written with explicit Python loops, a generic LP
solver, or dense contractions over explicit basis stacks, deliberately
avoiding the index-gather code paths under test.  Slow but unambiguous.
"""

from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from curvop import (
    CurvatureTensor,
    SchemaError,
    WeightClass,
    coordinates,
    greedy_min,
    random_curvature,
    ricci,
    s2_traceless_dim,
    second_kind_matrix,
)


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
                if abs(R[a, b, c, d] - w) > 1e-12 * (1.0 + abs(w)):
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


def fuzz_trial_seed(seed: int, idx: int) -> int:
    """The 64-bit seed of fuzz trial ``idx`` of a campaign with ``seed``."""
    return int(np.random.SeedSequence([seed, idx]).generate_state(1, np.uint64)[0])


def fuzz_trial(idx: int, n: int, seed: int, e_per_tensor: int, tol_base: float) -> dict:
    """One fuzz trial on its own: its tensor and unit probes through all five checks.

    The per-trial reference for the batched fuzz engine.  It assembles
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
    ric_min = float(ric.eigenvalues()[0])
    s = ric.trace()
    scale = max(1.0, T.norm_inf())
    tol = tol_base * scale

    rng = np.random.default_rng([trial_seed, 1])
    raw = rng.normal(size=(e_per_tensor, n, n))
    sym = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
    tr = np.trace(sym, axis1=1, axis2=2)
    Eb = sym - tr[:, None, None] * (np.eye(n) / n)
    Eb /= np.sqrt(np.einsum("aij,aij->a", Eb, Eb))[:, None, None]

    def g(omega, total):
        return greedy_min(lam, WeightClass(omega, total))

    q_idx = np.einsum("kijl,akl,aij->a", T.components, Eb, Eb, optimize=True)
    C = coordinates(Eb)
    q_mat = np.einsum("ab,bc,ac->a", C, matrix, C, optimize=True)
    W = C @ eigvecs
    q_eig = (W * W) @ lam
    nsq = np.sum(Eb * Eb, axis=(1, 2))
    nsq_floor = np.maximum(1.0, nsq)
    ric_term = np.einsum("ij,ait,ajt->a", ric.components, Eb, Eb, optimize=True)
    denom = np.maximum(np.maximum(1.0, np.abs(q_idx)), scale * nsq_floor)
    tol_e = tol * nsq_floor
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
