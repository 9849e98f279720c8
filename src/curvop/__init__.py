"""Curvature operators of the second kind: spectra, k-positivity, eigenvalue bounds.

The package is organized around a pipeline:

``base``       errors, input rules, report records, JSON text, thresholds (no numpy)
``core``       algebraic curvature tensors, symmetries, Ricci contractions
``operators``  operator matrices on 2-forms and trace-free symmetric 2-tensors
``weighted``   capped-simplex weighted eigenvalue sums and k-positivity
``models``     closed-form model tensors (space forms, sphere products, CP^m)
``verify``     spectral lower-bound checks, fuzzing, certificates
``cli``        the ``curvop`` command

``import curvop`` loads none of them: a submodule, and each public name,
is imported on first access (PEP 562), so a process loads only what it
uses.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule's public names: the one list, which each submodule reads as ``__all__``.
_EXPORTS = {
    "base": (
        "CurvopError",
        "InvalidTensorError",
        "TraceError",
        "SchemaError",
        "AdmissibilityError",
        "TOL_INEQ",
        "lambda2_dim",
        "s2_traceless_dim",
        "ThresholdProfile",
        "threshold_profile",
    ),
    "core": (
        "TAU_SYM",
        "TAU_TRACE",
        "SymmetryReport",
        "CurvatureTensor",
        "Sym2Tensor",
        "TracelessSym2",
        "validate_symmetries",
        "ricci",
        "scalar",
        "kulkarni_nomizu",
        "random_curvature",
        "tensor_to_json",
        "tensor_from_json",
    ),
    "operators": (
        "LAMBDA2",
        "S2_TRACELESS",
        "OperatorMatrix",
        "first_kind_matrix",
        "second_kind_matrix",
        "Spectrum",
        "spectrum",
        "coordinates",
        "reconstruct",
        "operator_to_json",
    ),
    "weighted": ("WeightClass", "KVerdict", "k_sum", "k_verdict", "greedy_min"),
    "models": (
        "constant_curvature",
        "product_spheres",
        "fubini_study",
        "ModelSpec",
        "CatalogEntry",
        "catalog",
        "model_from_json",
    ),
    "verify": (
        "CHECK_NAMES",
        "ConsistencyError",
        "InequalityReport",
        "all_checks",
        "EinsteinCertificate",
        "einstein_certificate",
        "Violation",
        "FuzzSummary",
        "fuzz_campaign",
        "persist_violator",
        "REGRESSION_DIR_ENV",
    ),
    "cli": (),
}

#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package globals, so a name always reads its module's
    # current binding (a monkeypatch there shows here).  A submodule binds
    # itself here once imported, and is not looked up again.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
