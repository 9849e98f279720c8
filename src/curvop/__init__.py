"""Curvature operators of the second kind: spectra, k-positivity, eigenvalue bounds.

The package is organized around a pipeline:

``core``       algebraic curvature tensors, symmetries, Ricci contractions
``operators``  operator matrices on 2-forms and trace-free symmetric 2-tensors
``weighted``   capped-simplex weighted eigenvalue sums and k-positivity
``models``     closed-form model tensors (space forms, sphere products, CP^m)
``verify``     spectral lower-bound checks, thresholds, fuzzing, certificates
``cli``        the ``curvop`` command
"""

__version__ = "0.1.0"

from .core import (
    TAU_SYM,
    TAU_TRACE,
    CurvopError,
    InvalidTensorError,
    TraceError,
    SchemaError,
    AdmissibilityError,
    SymmetryReport,
    CurvatureTensor,
    Sym2Tensor,
    TracelessSym2,
    validate_symmetries,
    ricci,
    scalar,
    traceless_ricci,
    kulkarni_nomizu,
    random_curvature,
    random_traceless,
    tensor_to_json,
    tensor_from_json,
)
from .operators import (
    LAMBDA2,
    S2_FULL,
    S2_TRACELESS,
    lambda2_dim,
    s2_dim,
    s2_traceless_dim,
    Sym2Basis,
    basis_lambda2,
    basis_s2_full,
    basis_s2_traceless,
    OperatorMatrix,
    first_kind_matrix,
    sym2_operator_matrix,
    second_kind_matrix,
    Spectrum,
    spectrum,
    quad_form,
    coordinates,
    reconstruct,
    operator_to_json,
)
from .weighted import (
    WeightClass,
    KVerdict,
    k_sum,
    k_verdict,
    greedy_min,
    greedy_weights,
    bound_for_m,
    class_scale,
    class_add,
    ImplicationReport,
    nonneg_implies_bound,
    sample_weights,
)
from .models import (
    constant_curvature,
    product_spheres,
    fubini_study,
    ModelSpec,
    CatalogEntry,
    catalog,
    model_from_json,
)
from .verify import (
    TOL_INEQ,
    CHECK_NAMES,
    ConsistencyError,
    InequalityReport,
    all_checks,
    ThresholdProfile,
    threshold_profile,
    EinsteinCertificate,
    einstein_certificate,
    Violation,
    FuzzSummary,
    fuzz_campaign,
    persist_violator,
    REGRESSION_DIR_ENV,
)

__all__ = [name for name in dir() if not name.startswith("_")]
