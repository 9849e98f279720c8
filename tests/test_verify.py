"""Spectral lower bounds, dimension thresholds, certificates, and fuzzing."""

import concurrent.futures
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvop.cli
import curvop.verify
from curvop import (
    CHECK_NAMES,
    ConsistencyError,
    CurvatureTensor,
    CurvopError,
    InvalidTensorError,
    OperatorMatrix,
    Spectrum,
    TAU_SYM,
    TraceError,
    TracelessSym2,
    WeightClass,
    all_checks,
    catalog,
    constant_curvature,
    einstein_certificate,
    first_kind_matrix,
    fubini_study,
    fuzz_campaign,
    greedy_min,
    k_sum,
    kulkarni_nomizu,
    persist_violator,
    product_spheres,
    random_curvature,
    second_kind_matrix,
    spectrum,
    tensor_from_json,
    tensor_to_json,
    threshold_profile,
)
from curvop.core import _require_valid_stack

from oracles import (
    class_add,
    class_scale,
    cylinder_n3,
    loop_basis_s2,
    random_traceless,
    traceless_ricci,
)


def _check(T, name, E=None, **kwargs):
    """One report of all_checks, selected by check name."""
    return {r.name: r for r in all_checks(T, E=E, **kwargs)}[name]


# --- dimension thresholds -----------------------------------------------------


def test_threshold_table():
    table = {
        3: (15 / 8, 15 / 8, "i"),
        4: (12 / 5, 12 / 5, "i"),
        5: (35 / 12, 35 / 12, "i"),
        7: (63 / 16, 63 / 16, "i"),
        8: (40 / 9, 4.0, "ii"),
        10: (60 / 11, 4.0, "ii"),
        13: (195 / 28, 4.0, "ii"),
        14: (112 / 15, 4.0, "iii"),
        20: (220 / 21, 5.0, "iii"),
        30: (480 / 31, 8.0, "iii"),
    }
    for n, (e, c, branch) in table.items():
        prof = threshold_profile(n)
        assert prof.einstein_threshold == pytest.approx(e, rel=1e-15)
        assert prof.constant_curvature_threshold == pytest.approx(c, rel=1e-15)
        assert prof.branch == branch


def test_threshold_piecewise_formula_agrees_with_min_max_form():
    for n in range(3, 60):
        prof = threshold_profile(n)
        e = n * (n + 2) / (2 * (n + 1))
        assert prof.einstein_threshold == pytest.approx(e, rel=1e-15)
        closed = min(e, max(4.0, float((n + 2) // 4)))
        assert prof.constant_curvature_threshold == pytest.approx(closed, rel=1e-15)
        # thresholds stay inside [1, N] so k_sum is always defined
        N = (n - 1) * (n + 2) / 2
        assert 1.0 <= prof.constant_curvature_threshold <= prof.einstein_threshold
        assert prof.einstein_threshold <= N


def test_threshold_profile_input_validation():
    # 10**155 once gave an infinite threshold, 10**400 an OverflowError.
    for bad in (2, 0, -3, True, 3.5, "4", 10**155, 10**400):
        with pytest.raises(ValueError):
            threshold_profile(bad)


def test_threshold_profile_json():
    doc = threshold_profile(9).to_json()
    assert doc == {
        "n": 9,
        "einstein_threshold": 9 * 11 / 20,
        "constant_curvature_threshold": 4.0,
        "branch": "ii",
    }


# --- the five bounds on closed-form models -------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kappa", [0.7, 1.0, 2.0])
def test_sphere_saturates_every_bound(n, kappa):
    """Round spheres sit exactly on all five lower bounds."""
    reports = all_checks(constant_curvature(n, kappa))
    assert tuple(r.name for r in reports) == CHECK_NAMES
    for r in reports:
        assert r.verdict == "boundary", (r.name, r.margin)
        assert r.ok
        assert abs(r.margin) <= r.tol


def test_scalar_bound_is_an_identity():
    """The scalar bound holds with equality for every valid tensor."""
    for seed in range(40):
        n = 3 + seed % 5
        T = random_curvature(seed, n, terms=1 + seed % 3)
        r = _check(T, "scalar_lower_bound")
        assert r.verdict == "boundary"
        assert abs(r.margin) <= r.tol


def test_all_bounds_hold_on_random_tensors():
    for seed in range(60):
        n = 3 + seed % 6
        T = random_curvature(seed, n)
        E = random_traceless(n, seed + 1000, unit=True)
        for r in all_checks(T, E=E):
            assert r.ok, (r.name, seed, r.margin, r.tol)


def test_ricci_combined_bound_is_weaker_than_two_term_bound():
    """The single-class Ricci bound arises from the two-term one by
    class addition, so its right side can only be lower."""
    for seed in range(40):
        n = 3 + seed % 6
        T = random_curvature(seed, n)
        plain = _check(T, "ricci_lower_bound")
        combined = _check(T, "ricci_combined_bound")
        assert plain.lhs == combined.lhs
        scale = max(1.0, abs(plain.rhs))
        assert combined.rhs <= plain.rhs + 1e-9 * scale


def test_ricci_combined_class_matches_direct_class_arithmetic():
    for seed in range(10):
        n = 3 + seed % 4
        T = random_curvature(seed, n)
        lam = spectrum(second_kind_matrix(T)).values
        N = lam.size
        cls = class_add(
            class_scale((n - 1) / (n + 1), WeightClass(1.0, float(n))),
            class_scale(2.0 / ((n + 1) * (n + 2)), WeightClass(1.0, float(N))),
        )
        assert _check(T, "ricci_combined_bound").rhs == pytest.approx(
            greedy_min(lam, cls), rel=1e-12, abs=1e-12
        )


def test_quadform_bound_sharp_at_bottom_eigenvector():
    for n in (3, 4, 5):
        T = random_curvature(n, n)
        M = second_kind_matrix(T)
        vals, vecs = np.linalg.eigh(M.entries)
        E = TracelessSym2(n, np.einsum("a,aij->ij", vecs[:, 0], loop_basis_s2(n)))
        r = _check(T, "quadform_lower_bound", E)
        assert r.verdict == "boundary"
        assert r.lhs == pytest.approx(vals[0], rel=1e-9, abs=1e-12)


def test_bochner_term_on_sphere_is_dimension_times_kappa():
    for n, kappa in [(3, 1.0), (5, 2.0), (6, 0.5)]:
        T = constant_curvature(n, kappa)
        E = random_traceless(n, 5, unit=True)
        r = _check(T, "bochner_lower_bound", E)
        assert r.lhs == pytest.approx(n * kappa, rel=1e-12)
        assert r.verdict == "boundary"


def test_bochner_check_scales_with_e_norm():
    T = product_spheres(2, 3, 1.0, 1.0)
    E1 = random_traceless(5, 7, unit=True)
    for c in (1.0, 10.0, 0.1):
        r = _check(T, "bochner_lower_bound", TracelessSym2(5, c * E1.components))
        assert r.ok
        assert r.lhs == pytest.approx(c * c * _check(T, "bochner_lower_bound", E1).lhs, rel=1e-12)


def test_report_json_fields():
    T = constant_curvature(3, 1.0)
    doc = _check(T, "scalar_lower_bound", seed=11).to_json()
    assert list(doc) == [
        "name",
        "lhs",
        "rhs",
        "margin",
        "verdict",
        "n",
        "fingerprint",
        "seed",
        "tol",
    ]
    assert doc["name"] == "scalar_lower_bound"
    assert doc["seed"] == 11
    assert doc["fingerprint"] == T.fingerprint
    assert json.dumps(doc)  # serializable as-is


def test_all_checks_raises_when_quadratic_form_paths_disagree(monkeypatch):
    """A matrix that no longer represents the tensor trips the dual-path check."""
    real = curvop.verify.second_kind_matrix

    def perturbed(T):
        M = real(T)
        return OperatorMatrix(M.domain, M.n, M.entries + 1e-3 * np.eye(M.dim))

    T = random_curvature(3, 5)
    E = random_traceless(5, 4, unit=True)
    assert all(r.ok for r in all_checks(T, E=E))
    monkeypatch.setattr(curvop.verify, "second_kind_matrix", perturbed)
    with pytest.raises(ConsistencyError, match="disagree"):
        all_checks(T, E=E)


def test_all_checks_validates_e():
    T = random_curvature(3, 4)
    with pytest.raises(ValueError):
        all_checks(T, E=np.eye(3))
    with pytest.raises(TraceError):
        all_checks(T, E=np.eye(4))
    sphere = constant_curvature(3, 1.0)
    with pytest.raises(ValueError, match="not symmetric"):
        all_checks(sphere, E=np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ValueError, match="input has a non-finite component"):
        all_checks(T, E=np.full((4, 4), np.nan))
    assert _check(sphere, "quadform_lower_bound", np.zeros((3, 3))).lhs == 0.0


def test_e_is_judged_relative_to_its_own_size():
    """c = 2^j scales E exactly, so no test of E and no verdict may move over j in [-40, 40]."""
    T = random_curvature(3, 3)
    not_trace_free = np.diag([1.0, -1.0, 0.0]) + 0.3 * np.eye(3)
    asymmetric = np.array([[0.0, 1.0, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    E = random_traceless(3, 3).components
    want = [r.verdict for r in all_checks(T, E=E)]
    for j in range(-40, 41):
        c = math.ldexp(1.0, j)
        with pytest.raises(TraceError, match=r"\* \|\|\.\|\|_F$"):
            all_checks(T, E=c * not_trace_free)
        with pytest.raises(ValueError, match="not symmetric"):
            all_checks(T, E=c * asymmetric)
        assert [r.verdict for r in all_checks(T, E=c * E)] == want, j


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_component_fails_validation_silently(bad):
    """Its tolerance is not finite, so the tensor is invalid and no check reaches eigh."""
    R = random_curvature(1, 4).components.copy()
    R[0, 1, 0, 1] = bad
    T = CurvatureTensor(4, R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = T.symmetry_report
        assert not report.valid and not math.isfinite(report.tol)
        for check in (all_checks, einstein_certificate, first_kind_matrix):
            with pytest.raises(InvalidTensorError):
                check(T)
        with pytest.raises(InvalidTensorError) as info:
            _require_valid_stack(np.stack([random_curvature(2, 4).components, R]))
    assert str(info.value) == str(InvalidTensorError(report))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_all_checks_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        all_checks(constant_curvature(4, 1.0), tol=tol)


def _sectional_overflow():
    """A valid n=3 tensor whose quadratic forms overflow double precision."""
    entries = [
        {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1e300},
        {"i": 0, "j": 2, "k": 0, "l": 2, "v": -1e300},
        {"i": 1, "j": 2, "k": 1, "l": 2, "v": 3e299},
    ]
    return tensor_from_json({"n": 3, "entries": entries})


def test_non_finite_results_raise_instead_of_passing():
    T = _sectional_overflow()
    assert T.symmetry_report.valid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurvopError, match="too large to evaluate") as err:
            all_checks(T)
        assert not isinstance(err.value, ConsistencyError)
        # Entries of 1e300 have a trace-free Ricci norm of 1.4e300: no overflow.
        assert _certificate_decisions(T) == _certificate_decisions(2.0**-990 * T)


def test_zero_tensor_reports_boundary_everywhere():
    """The zero tensor has scale +0.0, so every tolerance is +0.0 and it compares exactly."""
    for T in (0.0 * constant_curvature(4, 1.0), CurvatureTensor(4, np.zeros((4,) * 4))):
        assert math.copysign(1.0, T.norm_inf()) == 1.0
        for E in (None, random_traceless(4, 3, unit=True)):
            for r in all_checks(T, E=E):
                assert r.verdict == "boundary"
                assert math.copysign(1.0, r.tol) == 1.0 and r.tol == 0.0


def test_tiny_garbage_fails_validation_not_the_matrix_check():
    """A 1e-11-sized tensor with no curvature symmetry is judged at its own size."""
    T = CurvatureTensor(4, 1e-11 * np.random.default_rng(0).normal(size=(4,) * 4))
    assert not T.symmetry_report.valid
    assert T.symmetry_report.tol == TAU_SYM * T.norm_inf()
    for call in (all_checks, einstein_certificate, second_kind_matrix):
        with pytest.raises(InvalidTensorError):
            call(T)


# --- scale invariance -------------------------------------------------------------


def _certificate_decisions(T):
    """The k-verdict flags of both thresholds, is_einstein and impossible."""
    cert = einstein_certificate(T)
    flags = [(kv.nonnegative, kv.positive, kv.boundary)
             for kv in (cert.einstein_verdict, cert.constant_curvature_verdict)]
    return (*flags, cert.is_einstein, cert.impossible)


def _decisions(T):
    """Every tolerance decision about T: validity, the five verdicts, the
    certificate's decisions and the multiplicity counts of both spectra."""
    if not T.symmetry_report.valid:
        return (False,)
    counts = [tuple(c for _, c in spectrum(assemble(T)).multiplicities())
              for assemble in (first_kind_matrix, second_kind_matrix)]
    return (True, *(r.verdict for r in all_checks(T)), *_certificate_decisions(T), *counts)


_SIGNED = st.tuples(st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])

_SCALED_INPUTS = st.one_of(
    st.builds(random_curvature, st.integers(0, 2**32 - 1), st.integers(3, 7),
              st.integers(1, 3)),
    st.builds(constant_curvature, st.integers(3, 7), _SIGNED),
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])).map(
        lambda t: cylinder_n3(t[2] * t[0], t[2] * t[1])),
    st.builds(lambda seed, n: CurvatureTensor(n, np.random.default_rng(seed).normal(
        size=(n,) * 4)), st.integers(0, 2**32 - 1), st.integers(3, 5)),
)


@settings(max_examples=20, deadline=None)
@given(_SCALED_INPUTS)
@example(cylinder_n3(1.0, 2.0))
@example(CurvatureTensor(4, np.zeros((4,) * 4)))
def test_every_decision_is_invariant_under_exact_scaling(T):
    """c = 2^j scales every component exactly, so no decision may move over j in [-40, 40]."""
    want = _decisions(T)
    for j in range(-40, 41):
        assert _decisions(math.ldexp(1.0, j) * T) == want, j


def test_random_tensor_verdicts_hold_at_small_scales():
    T = random_curvature(3, 5)
    for c in (1.0, 1e-6, 1e-12):
        assert [r.verdict for r in all_checks(c * T)] == [
            "boundary", "holds", "holds", "holds", "holds"], c


# --- certificates ---------------------------------------------------------------


def test_certificate_on_round_sphere():
    cert = einstein_certificate(constant_curvature(5, 1.0))
    assert cert.is_einstein
    assert cert.einstein_verdict.positive
    assert cert.constant_curvature_verdict.positive
    assert not cert.impossible
    assert any("Einstein" in c for c in cert.conclusions)
    assert any("constant sectional curvature" in c for c in cert.conclusions)


def test_certificate_on_unbalanced_product():
    # At c = 1e-13 the threshold k-sum is -1.4e-13, once inside an absolute
    # 1e-12 band, and the Einstein test once passed it too.
    # At c = 1e-170 a plain sum of squares once put the trace-free Ricci norm at 0.
    for c in (1e-170, 1e-13, 1.0, 1e13):
        cert = einstein_certificate(c * product_spheres(2, 3, 1.0, 1.0))
        assert not cert.is_einstein
        assert not cert.einstein_verdict.nonnegative
        assert not cert.constant_curvature_verdict.nonnegative
        assert not cert.impossible
        assert cert.traceless_ricci_norm > 0.1 * c
        # bottom of the spectrum is the mixed eigenvalue -7/5
        assert cert.einstein_verdict.value < -1.0 * c


def test_certificate_on_einstein_product():
    # Einstein but not constant curvature: the mixed eigenvalue is negative,
    # so both spectral thresholds fail yet the tensor is Einstein.
    cert = einstein_certificate(product_spheres(2, 3, 1.0, math.sqrt(2.0)))
    assert cert.is_einstein
    assert not cert.einstein_verdict.nonnegative
    assert not cert.impossible


def test_certificate_on_fubini_study():
    # CP^2 is Einstein with a negative second-kind eigenvalue.
    cert = einstein_certificate(fubini_study(2))
    assert cert.is_einstein
    assert not cert.einstein_verdict.nonnegative
    assert not cert.impossible


def test_certificate_impossible_flag():
    """A spectrum passing the Einstein threshold on a non-Einstein tensor
    is a contradiction certificate."""
    h = np.diag([1.0, 0.0, 0.0, 0.0])
    T = constant_curvature(4, 1.0) + 0.01 * kulkarni_nomizu(h, np.eye(4))
    cert = einstein_certificate(T)
    assert cert.einstein_verdict.nonnegative
    assert not cert.is_einstein
    assert cert.impossible
    assert any("inconsistency" in c for c in cert.conclusions)


def test_certificate_on_zero_tensor():
    cert = einstein_certificate(0.0 * constant_curvature(4, 1.0))
    assert cert.is_einstein
    for kv in (cert.einstein_verdict, cert.constant_curvature_verdict):
        assert kv.boundary and kv.nonnegative and not kv.positive
        assert [type(kv.value), type(kv.nonnegative), type(kv.positive),
                type(kv.boundary)] == [float, bool, bool, bool]
    assert not cert.impossible
    assert any("boundary" in c or "not numerically decidable" in c
               for c in cert.conclusions)


def test_certificate_json_round_trips_through_json_module():
    cert = einstein_certificate(product_spheres(2, 2, 1.0, 1.0))
    doc = cert.to_json()
    assert doc == json.loads(json.dumps(doc))
    assert doc["thresholds"]["n"] == 4
    assert set(doc) == {
        "n",
        "fingerprint",
        "thresholds",
        "einstein_verdict",
        "constant_curvature_verdict",
        "traceless_ricci_norm",
        "is_einstein",
        "impossible",
        "conclusions",
    }


#: Each report's JSON keys in order, with the exact type of each value.
_REPORT_SCHEMAS = {
    "SymmetryReport": [
        ("antisymmetry", float), ("pair_symmetry", float), ("first_bianchi", float),
        ("tol", float), ("verdict", str),
    ],
    "KVerdict": [
        ("k", float), ("value", float), ("nonnegative", bool), ("positive", bool),
        ("boundary", bool),
    ],
    "InequalityReport": [
        ("name", str), ("lhs", float), ("rhs", float), ("margin", float), ("verdict", str),
        ("n", int), ("fingerprint", str), ("seed", int), ("tol", float),
    ],
    "ThresholdProfile": [
        ("n", int), ("einstein_threshold", float), ("constant_curvature_threshold", float),
        ("branch", str),
    ],
    "EinsteinCertificate": [
        ("n", int), ("fingerprint", str), ("thresholds", dict), ("einstein_verdict", dict),
        ("constant_curvature_verdict", dict), ("traceless_ricci_norm", float),
        ("is_einstein", bool), ("impossible", bool), ("conclusions", list),
    ],
    "Violation": [
        ("check", str), ("n", int), ("trial_index", int), ("trial_seed", int), ("terms", int),
        ("margin", float), ("tol", float), ("fingerprint", str), ("path", str),
    ],
    "FuzzSummary": [
        ("seed", int), ("trials_per_n", int), ("ns", list), ("e_per_tensor", int),
        ("tensors", int), ("tol", float), ("min_scaled_margins", dict),
        ("max_quad_dual_rel", float), ("max_eig_dual_rel", float), ("violations", list),
        ("ok", bool),
    ],
    "CatalogEntry": [("kind", str), ("doc", str), ("params", dict), ("example", dict)],
}


def _assert_schema(doc: dict, kind: str):
    schema = _REPORT_SCHEMAS[kind]
    assert list(doc) == [key for key, _ in schema], kind
    for key, want in schema:
        assert type(doc[key]) is want, (kind, key, type(doc[key]))


def test_report_json_keys_follow_a_fixed_order_and_types():
    """The key order and value types of every report's JSON, nested records included.

    Only orders and types are pinned, not float values, so this holds on
    any BLAS build.  Catalog entries are read from the ``models`` payload.
    """
    T = product_spheres(2, 3, 1.0, 1.0)
    cert = einstein_certificate(T)
    violation = curvop.verify.Violation(
        check="ricci_lower_bound", n=3, trial_index=2, trial_seed=12345, terms=3,
        margin=-1.5, tol=1e-9, fingerprint="0123456789abcdef", path="violator.json",
    )
    summary = fuzz_campaign(seed=4, trials_per_n=2, ns=(3, 4), e_per_tensor=2)
    faulty = summary._replace(violations=(violation,))
    docs = {
        "SymmetryReport": T.symmetry_report.to_json(),
        "KVerdict": cert.einstein_verdict.to_json(),
        "InequalityReport": _check(T, "ricci_lower_bound", seed=11).to_json(),
        "ThresholdProfile": threshold_profile(5).to_json(),
        "EinsteinCertificate": cert.to_json(),
        "Violation": violation.to_json(),
        "FuzzSummary": faulty.to_json(),
        "CatalogEntry": curvop.cli._cmd_models(None)[1]["models"][0],
    }
    for kind, doc in docs.items():
        _assert_schema(doc, kind)
    cert_doc = docs["EinsteinCertificate"]
    _assert_schema(cert_doc["thresholds"], "ThresholdProfile")
    _assert_schema(cert_doc["einstein_verdict"], "KVerdict")
    _assert_schema(cert_doc["constant_curvature_verdict"], "KVerdict")
    assert all(type(c) is str for c in cert_doc["conclusions"]) and cert_doc["conclusions"]
    fuzz_doc = docs["FuzzSummary"]
    assert fuzz_doc["ns"] == [3, 4] and all(type(n) is int for n in fuzz_doc["ns"])
    assert list(fuzz_doc["min_scaled_margins"]) == list(CHECK_NAMES)
    assert all(type(v) is float for v in fuzz_doc["min_scaled_margins"].values())
    assert fuzz_doc["violations"] == [docs["Violation"]] and fuzz_doc["ok"] is False
    assert summary.to_json()["violations"] == [] and summary.to_json()["ok"] is True
    assert docs["CatalogEntry"]["example"] == catalog()[0].example.to_json()
    assert [m["kind"] for m in curvop.cli._cmd_models(None)[1]["models"]] == [
        e.kind for e in catalog()
    ]
    assert json.loads(json.dumps(docs)) == docs


# --- fuzz campaign ---------------------------------------------------------------


def test_fuzz_smoke_after_content():
    s = fuzz_campaign(seed=7, trials_per_n=20, ns=(3, 4), e_per_tensor=5)
    assert s.ok
    assert s.tensors == 40
    assert set(s.min_scaled_margins) == set(CHECK_NAMES)
    for name, worst in s.min_scaled_margins.items():
        assert worst >= -1e-9, name
    # the scalar identity pins its margin to roundoff
    assert abs(s.min_scaled_margins["scalar_lower_bound"]) < 1e-10
    assert 0.0 <= s.max_quad_dual_rel <= 1e-9
    assert 0.0 <= s.max_eig_dual_rel <= 1e-9


def test_fuzz_deterministic_and_job_invariant():
    a = fuzz_campaign(seed=321, trials_per_n=12, ns=(3, 5), e_per_tensor=4)
    b = fuzz_campaign(seed=321, trials_per_n=12, ns=(3, 5), e_per_tensor=4)
    assert a.to_json() == b.to_json()
    c = fuzz_campaign(seed=321, trials_per_n=12, ns=(3, 5), e_per_tensor=4, jobs=2)
    assert a.to_json() == c.to_json()


@pytest.mark.parametrize("seed", [1, 7])
def test_fuzz_blocks_and_all_checks_share_the_e_free_checks(seed):
    """A trial's tensor replayed through all_checks keeps every bit of its E-free margins and tols."""
    v = curvop.verify
    for block in v._blocks((3, 4, 5, 8), 40):
        n, start, count = block
        trial_seeds, terms, _, _ = v._tensor_draws(seed, n, start, count)
        res = v._fuzz_block((seed, block, 2, 1e-9))
        for b, (trial_seed, m) in enumerate(zip(trial_seeds, terms)):
            for r in all_checks(random_curvature(trial_seed, n, m), tol=1e-9)[:3]:
                for key, got in (("margins", r.margin), ("tols", r.tol)):
                    assert np.float64(got).tobytes() == res[key][r.name][b].tobytes(), (
                        start + b, r.name, key)


def test_fuzz_input_validation():
    with pytest.raises(ValueError):
        fuzz_campaign(seed=-1, trials_per_n=5)
    with pytest.raises(ValueError):
        fuzz_campaign(seed=0, trials_per_n=0)
    for ns in ((2, 3), ()):
        with pytest.raises(ValueError, match="dimensions"):
            fuzz_campaign(seed=0, trials_per_n=5, ns=ns)
    with pytest.raises(ValueError, match="e_per_tensor"):
        fuzz_campaign(seed=0, trials_per_n=5, e_per_tensor=0)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            fuzz_campaign(seed=0, trials_per_n=5, jobs=jobs)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            fuzz_campaign(seed=0, trials_per_n=5, tol=tol)
    for bad in ({"ns": (3.9,)}, {"ns": (3, True)}, {"trials_per_n": 2.5},
                {"e_per_tensor": 2.5}, {"jobs": 1.5}, {"jobs": True}, {"seed": 1.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            fuzz_campaign(**{"seed": 0, "trials_per_n": 2, "ns": (3,), **bad})


def test_fuzz_report_does_not_take_the_argument_types():
    """numpy integers and an int tol give the same JSON as Python ints and a float tol."""
    args = dict(seed=4, trials_per_n=2, ns=(3,), e_per_tensor=2, jobs=1, tol=1.0)
    want = json.dumps(fuzz_campaign(**args).to_json())
    numpy_args = {k: (tuple(map(np.int64, v)) if k == "ns" else np.int64(v))
                  for k, v in args.items()}
    assert json.dumps(fuzz_campaign(**numpy_args).to_json()) == want
    assert json.dumps(fuzz_campaign(**{**args, "tol": 1}).to_json()) == want


def test_fuzz_jobs_clamped_to_cpus_and_blocks(monkeypatch):
    """The pool gets min(jobs, cpu count, blocks) workers, and none when that is 1."""
    workers = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor; runs the chunks in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # Two blocks (one per n) of two trials each.
    serial = fuzz_campaign(seed=4, trials_per_n=2, ns=(3, 4), e_per_tensor=2).to_json()
    for cpus, expected in ((8, 2), (3, 2), (None, None)):
        monkeypatch.setattr(curvop.verify.os, "cpu_count", lambda c=cpus: c)
        workers.clear()
        s = fuzz_campaign(seed=4, trials_per_n=2, ns=(3, 4), e_per_tensor=2, jobs=64)
        assert workers == ([] if expected is None else [expected])
        assert s.to_json() == serial
    # Three trials in one block: no pool at all, whatever the jobs and CPUs.
    monkeypatch.setattr(curvop.verify.os, "cpu_count", lambda: 8)
    workers.clear()
    s = fuzz_campaign(seed=4, trials_per_n=3, ns=(3,), e_per_tensor=2, jobs=2)
    assert workers == []
    assert s.to_json() == fuzz_campaign(seed=4, trials_per_n=3, ns=(3,), e_per_tensor=2).to_json()


def test_violators_go_to_the_argument_else_the_environment_variable(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(curvop.verify.REGRESSION_DIR_ENV, "from_env")
    s = fuzz_campaign(1, 1, (3,), 1, tol=0)
    assert s.violations
    assert {Path(v.path).parent for v in s.violations} == {Path("from_env")}
    s = fuzz_campaign(1, 1, (3,), 1, tol=0, regression_dir="from_arg")
    assert {Path(v.path).parent for v in s.violations} == {Path("from_arg")}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from_arg", "from_env"]


def test_persist_violator_round_trip(tmp_path):
    T = random_curvature(99, 4)
    path = persist_violator(T, tmp_path, meta={"check": "demo", "margin": -1.0})
    assert path.name == f"violator_{T.fingerprint}.json"
    doc = json.loads(path.read_text())
    assert doc["meta"]["check"] == "demo"
    back = tensor_from_json({"n": doc["n"], "entries": doc["entries"]})
    assert back.components.tobytes() == T.components.tobytes()


def test_persist_violator_writes_the_indented_json_bytes(tmp_path):
    """The file holds exactly json.dumps(doc, indent=2), with no trailing newline."""
    T = random_curvature(7, 3)
    meta = {"check": "demo", "margin": -0.5, "seed": 2**70, "note": "\u00e9, \n"}
    path = persist_violator(T, tmp_path, meta=meta)
    expected = json.dumps({"meta": meta, **tensor_to_json(T)}, indent=2)
    assert path.read_bytes() == expected.encode()
