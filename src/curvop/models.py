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

from . import _EXPORTS
from .base import SchemaError, _integer, _real, _Record, _require_memory, _tensor_bytes

__all__ = list(_EXPORTS["models"])


def constant_curvature(n: int, kappa: float) -> CurvatureTensor:
    """Round space form of sectional curvature kappa in dimension n.

    R[i,j,i,j] = kappa for i != j; n >= 2 and kappa is finite.
    """
    import numpy as np

    from .core import kulkarni_nomizu

    n, kappa = _integer("n", n, 2), _real("kappa", kappa)
    g = np.eye(n)
    return 0.5 * kappa * kulkarni_nomizu(g, g)


def product_spheres(p: int, q: int, r1: float, r2: float) -> CurvatureTensor:
    """Product S^p(r1) x S^q(r2) of round spheres, dimension p + q.

    Factor blocks carry constant curvature 1/r1^2 and 1/r2^2; every
    component with indices from both factors vanishes.  Ricci is
    diagonal with entries (p-1)/r1^2 (p times) and (q-1)/r2^2 (q times).
    p, q >= 2, and r1, r2 > 0 with 1/r^2 a positive finite double.
    """
    import numpy as np

    from .core import CurvatureTensor

    p, q = _integer("p", p, 2), _integer("q", q, 2)
    kappas = []
    for name, val in (("r1", r1), ("r2", r2)):
        try:
            kappas.append(1.0 / _real(name, val, 0.0, strict=True) ** 2)
        except (OverflowError, ZeroDivisionError):
            kappas.append(np.inf)
        if not 0.0 < kappas[-1] < np.inf:
            raise ValueError(f"{name} = {val!r} puts the curvature 1/{name}^2 out of range")
    n = p + q
    R = np.zeros((n, n, n, n))
    R[:p, :p, :p, :p] = constant_curvature(p, kappas[0]).components
    R[p:, p:, p:, p:] = constant_curvature(q, kappas[1]).components
    return CurvatureTensor(n, R, _owned=True)


def fubini_study(m: int) -> CurvatureTensor:
    """Complex projective space CP^m, holomorphic sectional curvature 4.

    In an orthonormal frame adapted to the complex structure J
    (J e_{2a} = e_{2a+1}), with A[i,k] = <J e_i, e_k>,

        R[i,j,k,l] = (d_ik d_jl - d_il d_jk)
                   + (A_ik A_jl - A_il A_jk) + 2 A_ij A_kl.

    Einstein with Ric = (2m + 2) g; for m = 1 (the least m) this is the
    round 2-sphere of curvature 4.
    """
    import numpy as np

    from .core import CurvatureTensor

    m = _integer("m", m, 1)
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

#: Each family's builder, example parameters and dimension n as a function
#: of its parameters.  The builder declares the rest: its annotations ("int"
#: or "float") are the parameter schema, and the first line of its docstring
#: is the family's description.
_REGISTRY = {
    "constant_curvature": (constant_curvature, {"n": 4, "kappa": 1.0}, lambda n, kappa: n),
    "product_spheres": (product_spheres, {"p": 2, "q": 3, "r1": 1.0, "r2": 1.0},
                        lambda p, q, r1, r2: p + q),
    "fubini_study": (fubini_study, {"m": 2}, lambda m: 2 * m),
}


def _schema(kind: str) -> dict:
    """The parameter schema of a family: name to "int" or "float", in order."""
    build = _REGISTRY[kind][0]
    return {name: typ for name, typ in build.__annotations__.items() if name != "return"}


@dataclass(frozen=True)
class ModelSpec:
    """A named model family plus concrete parameter values.

    ``params`` holds plain Python numbers keyed by the family's schema:
    an int or a float as the builder's annotation names, judged by the
    package's one rule for numbers.  The ranges are the builder's.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _REGISTRY:
            raise SchemaError(
                f"unknown model {self.kind!r}; available: {sorted(_REGISTRY)}"
            )
        schema = _schema(self.kind)
        clean = {}
        for name, typ in schema.items():
            if name not in self.params:
                raise SchemaError(f"model {self.kind!r} is missing parameter {name!r}")
            judge = _integer if typ == "int" else _real
            try:
                clean[name] = judge(f"parameter {name!r} of {self.kind!r}", self.params[name])
            except ValueError as bad:
                raise SchemaError(str(bad)) from None
        extra = set(self.params) - set(schema)
        if extra:
            raise SchemaError(
                f"model {self.kind!r} got unknown parameters {sorted(extra)}"
            )
        object.__setattr__(self, "params", clean)

    @property
    def doc(self) -> str:
        return (_REGISTRY[self.kind][0].__doc__ or "").partition("\n")[0]  # None under -OO

    def build(self) -> CurvatureTensor:
        """Construct the curvature tensor (parameter errors surface here).

        Raises :class:`ValueError` first when the tensor and its two operator
        matrices would not fit in physical memory.
        """
        build, _, dimension = _REGISTRY[self.kind]
        n = dimension(**self.params)
        _require_memory(f"model {self.kind!r} of dimension n = {n}", _tensor_bytes(n))
        try:
            return build(**self.params)
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
    specs = [ModelSpec(kind, dict(example)) for kind, (_, example, _) in sorted(_REGISTRY.items())]
    return tuple(CatalogEntry(s.kind, s.doc, _schema(s.kind), s) for s in specs)


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
