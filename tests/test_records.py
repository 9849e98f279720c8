"""The package's records: construction, immutability, equality, repr, pickling and JSON.

Each of the fifteen record classes is a plain class on ``base._Record``.
The repr and JSON text pinned here are what the records read as
frozen dataclasses, so both stay byte for byte as they were.
"""

import json
import pickle

import numpy as np
import pytest

from curvop import (CatalogEntry, CurvatureTensor, EinsteinCertificate, FuzzSummary,
                    InequalityReport, KVerdict, ModelSpec, OperatorMatrix, Spectrum, Sym2Tensor,
                    SymmetryReport, ThresholdProfile, TracelessSym2, Violation, WeightClass,
                    catalog, constant_curvature, einstein_certificate, fuzz_campaign,
                    threshold_profile)

#: One instance of each record class, built afresh by each call.
MAKE = {
    ThresholdProfile: lambda: threshold_profile(5),
    SymmetryReport: lambda: SymmetryReport(0.0, 0.5, 1e-17, 1e-9),
    CurvatureTensor: lambda: constant_curvature(2, 1.0),
    Sym2Tensor: lambda: Sym2Tensor(2, [[1, 0], [0, 2]]),
    TracelessSym2: lambda: TracelessSym2(2, [[1, 0], [0, -1]]),
    ModelSpec: lambda: ModelSpec("constant_curvature", {"n": 4, "kappa": 1}),
    CatalogEntry: lambda: catalog()[0],
    OperatorMatrix: lambda: OperatorMatrix("lambda2", 2, [[1.5]]),
    Spectrum: lambda: Spectrum([1.0, 2.0]),
    WeightClass: lambda: WeightClass(1, 2.5),
    KVerdict: lambda: KVerdict(2.0, 0.5, True, True, False),
    InequalityReport: lambda: InequalityReport("scalar_lower_bound", 1.0, 0.5, 0.5, "holds", 4,
                                               "0123456789abcdef", None, 1e-9),
    EinsteinCertificate: lambda: einstein_certificate(constant_curvature(3, 1.0)),
    Violation: lambda: Violation("ricci_lower_bound", 3, 2, 12345, 3, -1.5, 1e-9,
                                 "0123456789abcdef"),
    FuzzSummary: lambda: FuzzSummary(4, 2, (3, 4), 2, 4, 1e-9, {"scalar_lower_bound": 0.0},
                                     1e-16, 2e-16, (), 1.25),
}

#: The records that compare by identity; the other nine compare by their fields.
BY_IDENTITY = {CurvatureTensor, Sym2Tensor, TracelessSym2, OperatorMatrix, Spectrum, FuzzSummary}

#: The records whose fields hold a dict, so that hashing one raises TypeError.
UNHASHABLE = {ModelSpec, CatalogEntry}

REPRS = {
    ThresholdProfile: (
        'ThresholdProfile(n=5, einstein_threshold=2.9166666666666665, '
        "constant_curvature_threshold=2.9166666666666665, branch='i')"),
    SymmetryReport: (
        'SymmetryReport(antisymmetry=0.0, pair_symmetry=0.5, first_bianchi=1e-17, tol=1e-09)'),
    CurvatureTensor: (
        'CurvatureTensor(n=2, components=array([[[[ 0.,  0.],\n         [ 0.,  0.]],\n\n        '
        '[[ 0.,  1.],\n         [-1.,  0.]]],\n\n\n       [[[ 0., -1.],\n         [ 1.,  '
        '0.]],\n\n        [[ 0.,  0.],\n         [ 0.,  0.]]]]))'),
    Sym2Tensor: 'Sym2Tensor(n=2, components=array([[1., 0.],\n       [0., 2.]]))',
    TracelessSym2: 'TracelessSym2(n=2, components=array([[ 1.,  0.],\n       [ 0., -1.]]))',
    ModelSpec: "ModelSpec(kind='constant_curvature', params={'n': 4, 'kappa': 1.0})",
    CatalogEntry: (
        "CatalogEntry(kind='constant_curvature', doc='Round space form of sectional curvature "
        "kappa in dimension n.', params={'n': 'int', 'kappa': 'float'}, "
        "example=ModelSpec(kind='constant_curvature', params={'n': 4, 'kappa': 1.0}))"),
    OperatorMatrix: "OperatorMatrix(domain='lambda2', n=2, entries=array([[1.5]]))",
    Spectrum: 'Spectrum(values=array([1., 2.]))',
    WeightClass: 'WeightClass(omega=1.0, total=2.5)',
    KVerdict: 'KVerdict(k=2.0, value=0.5, nonnegative=True, positive=True, boundary=False)',
    InequalityReport: (
        "InequalityReport(name='scalar_lower_bound', lhs=1.0, rhs=0.5, margin=0.5, "
        "verdict='holds', n=4, fingerprint='0123456789abcdef', seed=None, tol=1e-09)"),
    EinsteinCertificate: (
        "EinsteinCertificate(n=3, fingerprint='d727af434141ad35', "
        'thresholds=ThresholdProfile(n=3, einstein_threshold=1.875, '
        "constant_curvature_threshold=1.875, branch='i'), einstein_verdict=KVerdict(k=1.875, "
        'value=1.875, nonnegative=True, positive=True, boundary=False), '
        'constant_curvature_verdict=KVerdict(k=1.875, value=1.875, nonnegative=True, '
        'positive=True, boundary=False), traceless_ricci_norm=0.0, is_einstein=True, '
        "impossible=False, conclusions=('spectrum is 1.875-nonnegative: a compact manifold with "
        "harmonic curvature carrying this curvature tensor at every point is Einstein', "
        "'spectrum is 1.875-nonnegative: a compact manifold with harmonic curvature carrying "
        "this curvature tensor at every point has constant sectional curvature'))"),
    Violation: (
        "Violation(check='ricci_lower_bound', n=3, trial_index=2, trial_seed=12345, terms=3, "
        "margin=-1.5, tol=1e-09, fingerprint='0123456789abcdef', path=None)"),
    FuzzSummary: (
        'FuzzSummary(seed=4, trials_per_n=2, ns=(3, 4), e_per_tensor=2, tensors=4, tol=1e-09, '
        "min_scaled_margins={'scalar_lower_bound': 0.0}, max_quad_dual_rel=1e-16, "
        'max_eig_dual_rel=2e-16, violations=(), elapsed=1.25)'),
}

#: ``json.dumps(record.to_json())`` of every record whose fields are JSON values.  The
#: records holding arrays are written by ``tensor_to_json`` and ``operator_to_json``.
JSONS = {
    ThresholdProfile: (
        '{"n": 5, "einstein_threshold": 2.9166666666666665, "constant_curvature_threshold": '
        '2.9166666666666665, "branch": "i"}'),
    SymmetryReport: (
        '{"antisymmetry": 0.0, "pair_symmetry": 0.5, "first_bianchi": 1e-17, "tol": 1e-09, '
        '"verdict": "invalid"}'),
    ModelSpec: '{"model": "constant_curvature", "n": 4, "kappa": 1.0}',
    CatalogEntry: (
        '{"kind": "constant_curvature", "doc": "Round space form of sectional curvature kappa '
        'in dimension n.", "params": {"n": "int", "kappa": "float"}, "example": {"model": '
        '"constant_curvature", "n": 4, "kappa": 1.0}}'),
    WeightClass: '{"omega": 1.0, "total": 2.5}',
    KVerdict: '{"k": 2.0, "value": 0.5, "nonnegative": true, "positive": true, "boundary": false}',
    InequalityReport: (
        '{"name": "scalar_lower_bound", "lhs": 1.0, "rhs": 0.5, "margin": 0.5, "verdict": '
        '"holds", "n": 4, "fingerprint": "0123456789abcdef", "seed": null, "tol": 1e-09}'),
    EinsteinCertificate: (
        '{"n": 3, "fingerprint": "d727af434141ad35", "thresholds": {"n": 3, '
        '"einstein_threshold": 1.875, "constant_curvature_threshold": 1.875, "branch": "i"}, '
        '"einstein_verdict": {"k": 1.875, "value": 1.875, "nonnegative": true, "positive": '
        'true, "boundary": false}, "constant_curvature_verdict": {"k": 1.875, "value": 1.875, '
        '"nonnegative": true, "positive": true, "boundary": false}, "traceless_ricci_norm": '
        '0.0, "is_einstein": true, "impossible": false, "conclusions": ["spectrum is '
        '1.875-nonnegative: a compact manifold with harmonic curvature carrying this curvature '
        'tensor at every point is Einstein", "spectrum is 1.875-nonnegative: a compact manifold '
        'with harmonic curvature carrying this curvature tensor at every point has constant '
        'sectional curvature"]}'),
    Violation: (
        '{"check": "ricci_lower_bound", "n": 3, "trial_index": 2, "trial_seed": 12345, "terms": '
        '3, "margin": -1.5, "tol": 1e-09, "fingerprint": "0123456789abcdef", "path": null}'),
    FuzzSummary: (
        '{"seed": 4, "trials_per_n": 2, "ns": [3, 4], "e_per_tensor": 2, "tensors": 4, "tol": '
        '1e-09, "min_scaled_margins": {"scalar_lower_bound": 0.0}, "max_quad_dual_rel": 1e-16, '
        '"max_eig_dual_rel": 2e-16, "violations": [], "ok": true}'),
}

records = pytest.mark.parametrize("cls", MAKE, ids=lambda cls: cls.__name__)


def test_fifteen_record_classes_and_no_dataclass():
    assert len(MAKE) == 15 and set(REPRS) == set(MAKE)
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in MAKE)


@records
def test_repr_reads_as_the_dataclass_repr_did(cls):
    assert repr(MAKE[cls]()) == REPRS[cls]


@records
def test_missing_unknown_or_surplus_arguments_raise_type_error(cls):
    record = MAKE[cls]()
    values = [getattr(record, name) for name in cls._stored]
    fields = ", ".join(cls._fields)
    with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes {fields}: got 0 by position "
                                        "and none by keyword$"):
        cls()
    with pytest.raises(TypeError, match="got 0 by position and .*no_such_field by keyword$"):
        record._replace(no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, None, None)
    with pytest.raises(TypeError):
        cls(*values[:1], **{cls._stored[0]: values[0]})


@records
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = MAKE[cls]()
    name = cls._stored[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert repr(record) == REPRS[cls]


@records
def test_equality_and_hash_by_fields_or_by_identity(cls):
    a, b = MAKE[cls](), MAKE[cls]()
    assert a == a and a != object()
    if cls in BY_IDENTITY:
        assert a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b)


def test_records_of_two_classes_differ_and_replace_builds_a_new_one():
    assert SymmetryReport(0.0, 0.0, 0.0, 1.0) != KVerdict(0.0, 0.0, 0.0, 1.0, True)
    assert SymmetryReport(0.0, 0.0, 0.0, 1.0)._replace(tol=2.0).tol == 2.0


@records
def test_pickle_round_trip(cls):
    record = MAKE[cls]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and repr(back) == REPRS[cls]
    assert back == record or cls in BY_IDENTITY


@records
def test_to_json_reads_as_before(cls):
    record = MAKE[cls]()
    if cls in JSONS:
        assert json.dumps(record.to_json()) == JSONS[cls]
    else:  # a record holding an array: its fields, the array as it is
        assert list(record.to_json()) == list(cls._stored)


def test_owned_is_an_argument_of_post_init_only():
    components = np.zeros((2,) * 4)
    T = CurvatureTensor(2, components, _owned=True)
    assert T.components is components and "_owned" not in vars(T)
    assert CurvatureTensor(2, components).components is not components
    M = OperatorMatrix("lambda2", 2, np.array([[1.5]]), True)
    assert "_owned" not in vars(M) and repr(M) == REPRS[OperatorMatrix]


def test_cached_property_on_a_frozen_record():
    T = constant_curvature(3, 1.0)
    assert "fingerprint" not in vars(T)
    assert T.fingerprint == vars(T)["fingerprint"] and T.symmetry_report.valid


def test_elapsed_is_a_field_but_not_json():
    summary = MAKE[FuzzSummary]()
    assert summary.elapsed == 1.25 and "elapsed" not in summary.to_json()
    assert summary._replace(elapsed=2.0).to_json() == summary.to_json()


def test_violations_cross_the_process_pool(tmp_path):
    """The pool of ``jobs=2`` pickles each block's Violations back to the campaign."""
    args = dict(seed=3, trials_per_n=33, ns=(3,), e_per_tensor=2, tol=0.0,
                regression_dir=tmp_path)
    one, two = fuzz_campaign(**args), fuzz_campaign(**args, jobs=2)
    assert one.violations and all(type(v) is Violation for v in two.violations)
    assert two.violations == one.violations
