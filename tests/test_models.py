"""Closed-form model families and their JSON parameter schemas."""

import warnings

import numpy as np
import pytest

from curvop import (
    CurvatureTensor,
    ModelSpec,
    SchemaError,
    catalog,
    constant_curvature,
    fubini_study,
    model_from_json,
    product_spheres,
    random_curvature,
    ricci,
    scalar,
    second_kind_matrix,
    spectrum,
)

from oracles import expected_ricci, loop_ricci, traceless_ricci


# --- constant curvature -------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("kappa", [1.0, -0.5, 2.25])
def test_constant_curvature_sectional_values(n, kappa):
    T = constant_curvature(n, kappa)
    assert T.symmetry_report.max_violation == 0.0
    for i in range(n):
        for j in range(n):
            expected = kappa if i != j else 0.0
            assert T.components[i, j, i, j] == expected
            if i != j:
                assert T.components[i, j, j, i] == -kappa


@pytest.mark.parametrize("n,kappa", [(3, 1.0), (4, -2.0), (7, 0.25)])
def test_constant_curvature_ricci_and_scalar(n, kappa):
    T = constant_curvature(n, kappa)
    np.testing.assert_array_equal(ricci(T).components, (n - 1) * kappa * np.eye(n))
    assert scalar(T) == n * (n - 1) * kappa
    assert np.linalg.norm(traceless_ricci(T).components) == 0.0


# --- sphere products ------------------------------------------------------------


def test_product_block_sectionals_and_zero_mixing():
    p, q, r1, r2 = 2, 3, 1.0, 2.0
    T = product_spheres(p, q, r1, r2)
    n = p + q
    comp = T.components
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            both_first = i < p and j < p
            both_second = i >= p and j >= p
            if both_first:
                assert comp[i, j, i, j] == 1.0 / r1**2
            elif both_second:
                assert comp[i, j, i, j] == 1.0 / r2**2
            else:
                # mixed planes are flat, exactly
                assert comp[i, j, i, j] == 0.0
    # any component with indices from both factors vanishes
    for idx in np.ndindex(n, n, n, n):
        first = [t < p for t in idx]
        if any(first) and not all(first):
            assert comp[idx] == 0.0


def test_product_ricci_closed_form():
    for (p, q, r1, r2) in [(2, 2, 1.0, 1.0), (2, 3, 0.5, 2.0), (4, 3, 1.5, 1.0)]:
        T = product_spheres(p, q, r1, r2)
        expect = np.diag([(p - 1) / r1**2] * p + [(q - 1) / r2**2] * q)
        np.testing.assert_allclose(ricci(T).components, expect, rtol=0, atol=1e-14)
        np.testing.assert_allclose(loop_ricci(T.components), expect, rtol=0, atol=1e-14)


def test_product_einstein_iff_ricci_blocks_match():
    # S^2(1) x S^3(sqrt 2): (p-1)/r1^2 = 1 and (q-1)/r2^2 = 1, Einstein.
    T = product_spheres(2, 3, 1.0, np.sqrt(2.0))
    E = traceless_ricci(T).components
    assert np.linalg.norm(E) < 1e-14
    # unequal normalized blocks are not
    T2 = product_spheres(2, 3, 1.0, 1.0)
    assert np.linalg.norm(traceless_ricci(T2).components) > 0.1


def test_product_radius_rescaling_scales_curvature():
    base = product_spheres(3, 2, 1.0, 2.0)
    for t in (2.0, 0.5):
        scaled = product_spheres(3, 2, t * 1.0, t * 2.0)
        np.testing.assert_allclose(
            scaled.components, base.components / t**2, rtol=1e-15, atol=0
        )


@pytest.mark.parametrize(
    "p,q,r1,r2",
    [(2, 2, 1.0, 1.0), (2, 3, 1.0, 1.0), (3, 4, 1.5, 0.5), (2, 5, 1.0, 3.0)],
)
def test_product_compressed_spectrum_closed_form(p, q, r1, r2):
    """Eigenvalues of the trace-free compression split by factor.

    One negative mixed eigenvalue, a pq-fold zero from the off-blocks, and
    the factor curvatures with the dimensions of each factor's trace-free
    symmetric space.
    """
    k1, k2 = 1.0 / r1**2, 1.0 / r2**2
    n = p + q
    T = product_spheres(p, q, r1, r2)
    spec = spectrum(second_kind_matrix(T))
    mixed = -(k1 * (p - 1) * q + k2 * (q - 1) * p) / n
    expected = (
        [mixed]
        + [0.0] * (p * q)
        + [k1] * (p * (p + 1) // 2 - 1)
        + [k2] * (q * (q + 1) // 2 - 1)
    )
    np.testing.assert_allclose(spec.values, np.sort(expected), rtol=0, atol=1e-10)


def test_product_parameter_validation():
    with pytest.raises(ValueError):
        product_spheres(1, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        product_spheres(2, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        product_spheres(2, 2, -1.0, 1.0)
    with pytest.raises(ValueError):
        product_spheres(2, 2, 1.0, 0.0)


@pytest.mark.parametrize("r2", [1e-200, 1e-160, 1e200, np.float64(1e-200), np.float64(1e200)])
def test_product_radius_whose_curvature_a_double_cannot_hold(r2):
    """1/r^2 underflows, overflows or divides by zero: a ValueError naming r2, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r2"):
            product_spheres(2, 2, 1.0, r2)


# --- complex projective space --------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fubini_study_einstein_constant(m):
    T = fubini_study(m)
    n = 2 * m
    assert T.n == n
    assert T.symmetry_report.max_violation == 0.0
    np.testing.assert_array_equal(ricci(T).components, (2 * m + 2) * np.eye(n))
    assert scalar(T) == 4 * m * (m + 1)


def test_fubini_study_m1_is_round_sphere():
    np.testing.assert_array_equal(
        fubini_study(1).components, constant_curvature(2, 4.0).components
    )


def test_fubini_study_sectional_range():
    # holomorphic planes see curvature 4, totally real planes see 1
    T = fubini_study(3)
    comp = T.components
    assert comp[0, 1, 0, 1] == 4.0
    assert comp[0, 2, 0, 2] == 1.0
    assert comp[0, 3, 0, 3] == 1.0


def test_fubini_study_m2_compressed_spectrum():
    spec = spectrum(second_kind_matrix(fubini_study(2)))
    expected = [-2.0] * 3 + [4.0] * 6
    np.testing.assert_allclose(spec.values, expected, rtol=0, atol=1e-10)


def test_fubini_study_rejects_bad_m():
    with pytest.raises(ValueError):
        fubini_study(0)
    with pytest.raises(ValueError):
        fubini_study(-2)


# --- size guard of the builders -------------------------------------------------


def _no_allocation(*args, **kwargs):
    raise AssertionError("a refused builder allocated")


@pytest.mark.parametrize("build, args, what", [
    (constant_curvature, (40, 1.0), "model 'constant_curvature' of dimension n = 40"),
    (product_spheres, (20, 20, 1.0, 1.0), "model 'product_spheres' of dimension n = 40"),
    (fubini_study, (20,), "model 'fubini_study' of dimension n = 40"),
    (random_curvature, (0, 40), "a random tensor of dimension n = 40"),
], ids=lambda x: getattr(x, "__name__", ""))
def test_builder_refuses_a_tensor_beyond_physical_memory_before_allocating(monkeypatch, build,
                                                                           args, what):
    # 20 MiB holds no 40-dimensional tensor: 8 n^4 alone is 19.5 MiB.
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 20 << 20)
    monkeypatch.setattr("numpy.zeros", _no_allocation)
    monkeypatch.setattr("numpy.eye", _no_allocation)
    with pytest.raises(ValueError, match=f"^{what} is too large to run: .* 0.0195 GiB of physical"):
        build(*args)


def test_random_curvature_counts_its_draws_in_its_size(monkeypatch):
    """10**12 terms of 3 x 3 draws need 268 TiB: refused before the draw buffer exists."""
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 1 << 40)
    monkeypatch.setattr("numpy.zeros", _no_allocation)
    with pytest.raises(ValueError, match="^a random tensor of dimension n = 3 is too large to "
                                         "run: it needs about 2.68e\\+05 GiB, more than the "
                                         "1.02e\\+03 GiB"):
        random_curvature(0, 3, 10**12)


def test_builder_judges_its_arguments_before_its_size(monkeypatch):
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 20 << 20)
    with pytest.raises(ValueError, match="^q must be an integer >= 2, got 1$"):
        product_spheres(100, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="^terms must be an integer >= 1, got 0$"):
        random_curvature(0, 100, 0)


# --- ModelSpec schema -----------------------------------------------------------


def test_model_spec_builds_and_matches_closed_form_ricci():
    for entry in catalog():
        spec = entry.example
        T = spec.build()
        assert isinstance(T, CurvatureTensor)
        np.testing.assert_allclose(
            ricci(T).components, expected_ricci(spec), rtol=0, atol=1e-12
        )


def test_model_spec_accepts_int_for_float_params():
    spec = ModelSpec("constant_curvature", {"n": 3, "kappa": 2})
    assert spec.params["kappa"] == 2.0
    assert isinstance(spec.params["kappa"], float)


def test_model_spec_schema_errors():
    with pytest.raises(SchemaError, match="unknown model"):
        ModelSpec("round_sphere", {"n": 3})
    with pytest.raises(SchemaError, match="missing parameter"):
        ModelSpec("constant_curvature", {"n": 3})
    with pytest.raises(SchemaError, match="unknown parameters"):
        ModelSpec("constant_curvature", {"n": 3, "kappa": 1.0, "radius": 2.0})
    with pytest.raises(SchemaError, match="must be an integer"):
        ModelSpec("constant_curvature", {"n": 3.0, "kappa": 1.0})
    with pytest.raises(SchemaError, match="must be an integer"):
        ModelSpec("constant_curvature", {"n": True, "kappa": 1.0})
    with pytest.raises(SchemaError, match="must be a number"):
        ModelSpec("constant_curvature", {"n": 3, "kappa": "one"})


def test_model_spec_build_wraps_domain_errors():
    with pytest.raises(SchemaError, match="product_spheres"):
        ModelSpec(
            "product_spheres", {"p": 1, "q": 2, "r1": 1.0, "r2": 1.0}
        ).build()
    with pytest.raises(SchemaError):
        ModelSpec("fubini_study", {"m": 0}).build()


def test_model_spec_makes_the_builds_refusals_at_construction_in_its_order(monkeypatch):
    assert ModelSpec("fubini_study", {"m": 3}).n == 6
    monkeypatch.setattr("curvop.base._physical_memory", lambda: 20 << 20)
    # The size guard before the range checks, both before any ModelSpec exists.
    with pytest.raises(ValueError, match="^model .product_spheres. of dimension n = 101 is"):
        ModelSpec("product_spheres", {"p": 100, "q": 1, "r1": 1.0, "r2": 1.0})
    with pytest.raises(SchemaError, match="^model .product_spheres.: q must be an integer"):
        ModelSpec("product_spheres", {"p": 2, "q": 1, "r1": 1.0, "r2": 1.0})


def test_model_json_round_trip():
    spec = ModelSpec("product_spheres", {"p": 2, "q": 3, "r1": 1.0, "r2": 2.0})
    doc = spec.to_json()
    assert doc["model"] == "product_spheres"
    again = model_from_json(doc)
    assert again == spec
    assert again.to_json() == doc


def test_model_from_json_requires_model_key():
    with pytest.raises(SchemaError):
        model_from_json({"kind": "constant_curvature", "n": 3, "kappa": 1.0})


def test_catalog_contents():
    entries = catalog()
    kinds = [e.kind for e in entries]
    assert kinds == sorted(kinds)
    assert set(kinds) == {"constant_curvature", "fubini_study", "product_spheres"}
    for e in entries:
        assert e.doc
        assert set(e.example.params) == set(e.params)
