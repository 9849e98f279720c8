"""Closed-form model curvature tensors with known spectra and Ricci data.

Three families:

* ``constant_curvature(n, kappa)``: the round space form, built as
  (kappa/2) g ^ g (Kulkarni-Nomizu square of the metric).  Both
  curvature operators are kappa times the identity.
* ``product_spheres(p, q, r1, r2)``: the Riemannian product
  S^p(r1) x S^q(r2), block constant curvature 1/r1^2 and 1/r2^2 with
  vanishing mixed components.  Einstein iff (p-1)/r1^2 = (q-1)/r2^2.
* ``fubini_study(m)``: complex projective space of complex dimension m
  (real dimension 2m), normalized to holomorphic sectional curvature 4,
  so real planes have sectional curvature 1 and Ric = (2m + 2) g.

The closed-form Ricci tensor of each family lives in
``tests/oracles.py`` (``expected_ricci``), as an independent cross-check
on the contraction code.  Model descriptions round-trip through a small
JSON schema, e.g.

    {"model": "product_spheres", "p": 2, "q": 3, "r1": 1.0, "r2": 1.0}

The schema and the catalog are plain Python: only the three builders
import numpy and ``core``, so ``curvop models`` runs without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import SchemaError, _Record

__all__ = [
    "constant_curvature",
    "product_spheres",
    "fubini_study",
    "ModelSpec",
    "CatalogEntry",
    "catalog",
    "model_from_json",
]


def constant_curvature(n: int, kappa: float) -> CurvatureTensor:
    """Space form of sectional curvature kappa: R[i,j,i,j] = kappa for i != j."""
    import numpy as np

    from .core import kulkarni_nomizu

    if n < 2:
        raise ValueError("n must be >= 2")
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    g = np.eye(n)
    return 0.5 * float(kappa) * kulkarni_nomizu(g, g)


def product_spheres(p: int, q: int, r1: float, r2: float) -> CurvatureTensor:
    """Product of round spheres S^p(r1) x S^q(r2) in dimension p + q.

    Factor blocks carry constant curvature 1/r1^2 and 1/r2^2; every
    component with indices from both factors vanishes.  Ricci is
    diagonal with entries (p-1)/r1^2 (p times) and (q-1)/r2^2 (q times).
    """
    import numpy as np

    from .core import CurvatureTensor

    for name, val in (("p", p), ("q", q)):
        if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < 2:
            raise ValueError(f"{name} must be an integer >= 2, got {val!r}")
    for name, val in (("r1", r1), ("r2", r2)):
        if not (val > 0.0) or not np.isfinite(val):
            raise ValueError(f"{name} must be a positive radius, got {val!r}")
    n = p + q
    R = np.zeros((n, n, n, n))
    R[:p, :p, :p, :p] = constant_curvature(p, 1.0 / r1**2).components
    R[p:, p:, p:, p:] = constant_curvature(q, 1.0 / r2**2).components
    return CurvatureTensor(n, R, _owned=True)


def fubini_study(m: int) -> CurvatureTensor:
    """Complex projective space CP^m with holomorphic sectional curvature 4.

    In an orthonormal frame adapted to the complex structure J
    (J e_{2a} = e_{2a+1}), with A[i,k] = <J e_i, e_k>,

        R[i,j,k,l] = (d_ik d_jl - d_il d_jk)
                   + (A_ik A_jl - A_il A_jk) + 2 A_ij A_kl.

    Einstein with Ric = (2m + 2) g; for m = 1 this is the round 2-sphere
    of curvature 4.
    """
    import numpy as np

    from .core import CurvatureTensor

    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    n = 2 * m
    A = np.zeros((n, n))
    for a in range(m):
        A[2 * a, 2 * a + 1] = 1.0
        A[2 * a + 1, 2 * a] = -1.0
    I = np.eye(n)
    R = (
        np.einsum("ik,jl->ijkl", I, I)
        - np.einsum("il,jk->ijkl", I, I)
        + np.einsum("ik,jl->ijkl", A, A)
        - np.einsum("il,jk->ijkl", A, A)
        + 2.0 * np.einsum("ij,kl->ijkl", A, A)
    )
    return CurvatureTensor(n, R, _owned=True)


# --- model registry and JSON schema ----------------------------------------

_INT = "int"
_FLOAT = "float"

_REGISTRY: dict[str, dict] = {
    "constant_curvature": {
        "doc": "Round space form of sectional curvature kappa in dimension n.",
        "params": {"n": _INT, "kappa": _FLOAT},
        "build": lambda p: constant_curvature(p["n"], p["kappa"]),
        "example": {"n": 4, "kappa": 1.0},
    },
    "product_spheres": {
        "doc": "Product S^p(r1) x S^q(r2) of round spheres, dimension p + q.",
        "params": {"p": _INT, "q": _INT, "r1": _FLOAT, "r2": _FLOAT},
        "build": lambda p: product_spheres(p["p"], p["q"], p["r1"], p["r2"]),
        "example": {"p": 2, "q": 3, "r1": 1.0, "r2": 1.0},
    },
    "fubini_study": {
        "doc": "Complex projective space CP^m, holomorphic sectional curvature 4.",
        "params": {"m": _INT},
        "build": lambda p: fubini_study(p["m"]),
        "example": {"m": 2},
    },
}


@dataclass(frozen=True)
class ModelSpec:
    """A named model family plus concrete parameter values.

    ``params`` holds plain Python numbers keyed by the family's schema.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _REGISTRY:
            raise SchemaError(
                f"unknown model {self.kind!r}; available: {sorted(_REGISTRY)}"
            )
        schema = _REGISTRY[self.kind]["params"]
        clean = {}
        for name, typ in schema.items():
            if name not in self.params:
                raise SchemaError(f"model {self.kind!r} is missing parameter {name!r}")
            val = self.params[name]
            if typ == _INT:
                if not isinstance(val, int) or isinstance(val, bool):
                    raise SchemaError(
                        f"parameter {name!r} of {self.kind!r} must be an integer, "
                        f"got {val!r}"
                    )
                clean[name] = int(val)
            else:
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    raise SchemaError(
                        f"parameter {name!r} of {self.kind!r} must be a number, "
                        f"got {val!r}"
                    )
                clean[name] = float(val)
        extra = set(self.params) - set(schema)
        if extra:
            raise SchemaError(
                f"model {self.kind!r} got unknown parameters {sorted(extra)}"
            )
        object.__setattr__(self, "params", clean)

    @property
    def doc(self) -> str:
        return _REGISTRY[self.kind]["doc"]

    def build(self) -> CurvatureTensor:
        """Construct the curvature tensor (parameter errors surface here)."""
        try:
            return _REGISTRY[self.kind]["build"](self.params)
        except ValueError as bad:
            raise SchemaError(f"model {self.kind!r}: {bad}") from bad

    def to_json(self) -> dict:
        return {"model": self.kind, **self.params}


@dataclass(frozen=True)
class CatalogEntry(_Record):
    """Catalog row: family name, one-line description, parameter schema, example."""

    kind: str
    doc: str
    params: dict
    example: ModelSpec


def catalog() -> tuple[CatalogEntry, ...]:
    """All built-in model families, with schemas suitable for CLI help."""
    return tuple(
        CatalogEntry(
            kind=kind,
            doc=info["doc"],
            params=dict(info["params"]),
            example=ModelSpec(kind=kind, params=dict(info["example"])),
        )
        for kind, info in sorted(_REGISTRY.items())
    )


def model_from_json(obj: dict) -> ModelSpec:
    """Parse {"model": name, ...params} into a validated ModelSpec."""
    if not isinstance(obj, dict):
        raise SchemaError("model document must be a JSON object")
    if "model" not in obj:
        raise SchemaError('model document is missing the "model" key')
    kind = obj["model"]
    if not isinstance(kind, str):
        raise SchemaError(f'"model" must be a string, got {kind!r}')
    params = {k: v for k, v in obj.items() if k != "model"}
    return ModelSpec(kind=kind, params=params)
