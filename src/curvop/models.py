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

The schema, the catalog and each builder's range checks and size guard
are plain Python: a builder imports numpy and ``core`` only once they
pass, so ``curvop models`` and every refused model run without numpy.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .base import SchemaError, _integer, _real, _Record, _require_memory, _tensor_bytes

__all__ = list(_EXPORTS["models"])


def _require_fits(kind: str, n: int) -> None:
    """The size guard of model ``kind`` at dimension n, run before anything is allocated."""
    _require_memory(f"model {kind!r} of dimension n = {n}", _tensor_bytes(n))


def _constant_curvature_args(n, kappa) -> tuple[int, float]:
    """The arguments of :func:`constant_curvature`, judged: n >= 2 and kappa finite."""
    return _integer("n", n, 2), _real("kappa", kappa)


def constant_curvature(n: int, kappa: float) -> CurvatureTensor:
    """Round space form of sectional curvature kappa in dimension n.

    R[i,j,i,j] = kappa for i != j; n >= 2 and kappa is finite.  Raises
    :class:`ValueError` for other arguments, or when the tensor and its
    two operator matrices would not fit in physical memory.
    """
    n, kappa = _constant_curvature_args(n, kappa)
    _require_fits("constant_curvature", n)
    import numpy as np

    from .core import kulkarni_nomizu

    g = np.eye(n)
    return 0.5 * kappa * kulkarni_nomizu(g, g)


def _product_spheres_args(p, q, r1, r2) -> tuple[int, int, float, float]:
    """The arguments of :func:`product_spheres`, judged, each radius r as its curvature 1/r^2."""
    p, q = _integer("p", p, 2), _integer("q", q, 2)
    kappas = []
    for name, val in (("r1", r1), ("r2", r2)):
        try:
            kappas.append(1.0 / _real(name, val, 0.0, strict=True) ** 2)
        except (OverflowError, ZeroDivisionError):
            kappas.append(math.inf)
        if not 0.0 < kappas[-1] < math.inf:
            raise ValueError(f"{name} = {val!r} puts the curvature 1/{name}^2 out of range")
    return p, q, *kappas


def product_spheres(p: int, q: int, r1: float, r2: float) -> CurvatureTensor:
    """Product S^p(r1) x S^q(r2) of round spheres, dimension p + q.

    Factor blocks carry constant curvature 1/r1^2 and 1/r2^2; every
    component with indices from both factors vanishes.  Ricci is
    diagonal with entries (p-1)/r1^2 (p times) and (q-1)/r2^2 (q times).
    p, q >= 2, and r1, r2 > 0 with 1/r^2 a positive finite double;
    raises :class:`ValueError` otherwise, or when the tensor and its two
    operator matrices would not fit in physical memory.
    """
    p, q, kappa1, kappa2 = _product_spheres_args(p, q, r1, r2)
    n = p + q
    _require_fits("product_spheres", n)
    import numpy as np

    from .core import CurvatureTensor

    R = np.zeros((n, n, n, n))
    R[:p, :p, :p, :p] = constant_curvature(p, kappa1).components
    R[p:, p:, p:, p:] = constant_curvature(q, kappa2).components
    return CurvatureTensor(n, R, _owned=True)


def _fubini_study_args(m) -> int:
    """The argument of :func:`fubini_study`, judged: m >= 1."""
    return _integer("m", m, 1)


def fubini_study(m: int) -> CurvatureTensor:
    """Complex projective space CP^m, holomorphic sectional curvature 4.

    In an orthonormal frame adapted to the complex structure J
    (J e_{2a} = e_{2a+1}), with A[i,k] = <J e_i, e_k>,

        R[i,j,k,l] = (d_ik d_jl - d_il d_jk)
                   + (A_ik A_jl - A_il A_jk) + 2 A_ij A_kl.

    Einstein with Ric = (2m + 2) g; for m = 1 (the least m) this is the
    round 2-sphere of curvature 4.  Raises :class:`ValueError` for other
    m, or when the tensor and its two operator matrices would not fit in
    physical memory.
    """
    m = _fubini_study_args(m)
    n = 2 * m
    _require_fits("fubini_study", n)
    import numpy as np

    from .core import CurvatureTensor

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

#: Each family's builder, example parameters, dimension n as a function of
#: its parameters, and the builder's numpy-free range checks.  The builder
#: declares the rest: its annotations ("int" or "float") are the parameter
#: schema, and the first line of its docstring is the family's description.
_REGISTRY = {
    "constant_curvature": (constant_curvature, {"n": 4, "kappa": 1.0}, lambda n, kappa: n,
                           _constant_curvature_args),
    "product_spheres": (product_spheres, {"p": 2, "q": 3, "r1": 1.0, "r2": 1.0},
                        lambda p, q, r1, r2: p + q, _product_spheres_args),
    "fubini_study": (fubini_study, {"m": 2}, lambda m: 2 * m, _fubini_study_args),
}


def _schema(kind: str) -> dict:
    """The parameter schema of a family: name to "int" or "float", in order."""
    build = _REGISTRY[kind][0]
    return {name: typ for name, typ in build.__annotations__.items() if name != "return"}


class ModelSpec(_Record):
    """A named model family plus concrete parameter values, judged whole when made.

    ``params`` holds plain Python numbers keyed by the family's schema:
    an int or a float as the builder's annotation names, judged by the
    package's one rule for numbers.  Then come the size guard (ValueError)
    and the builder's ranges (SchemaError), so any ModelSpec can be built.
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
        _require_fits(self.kind, self.n)
        try:
            _REGISTRY[self.kind][3](**clean)
        except ValueError as bad:
            raise SchemaError(f"model {self.kind!r}: {bad}") from bad

    @property
    def n(self) -> int:
        """The model's dimension."""
        return _REGISTRY[self.kind][2](**self.params)

    @property
    def doc(self) -> str:
        return (_REGISTRY[self.kind][0].__doc__ or "").partition("\n")[0]  # None under -OO

    def build(self) -> CurvatureTensor:
        """Construct the curvature tensor."""
        return _REGISTRY[self.kind][0](**self.params)

    def to_json(self) -> dict:
        return {"model": self.kind, **self.params}


class CatalogEntry(_Record):
    """Catalog row: family name, one-line description, parameter schema, example."""

    kind: str
    doc: str
    params: dict
    example: ModelSpec


def catalog() -> tuple[CatalogEntry, ...]:
    """All built-in model families, with schemas suitable for CLI help."""
    specs = [ModelSpec(kind, dict(entry[1])) for kind, entry in sorted(_REGISTRY.items())]
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
