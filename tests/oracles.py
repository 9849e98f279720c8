"""Independent brute-force implementations used as test oracles.

Everything here is written with explicit Python loops (or a generic LP
solver), deliberately avoiding the einsum-based code paths under test.
Slow but unambiguous.
"""

from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from curvop import CurvatureTensor, SchemaError


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
