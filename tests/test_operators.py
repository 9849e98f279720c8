"""Operator assembly, bases, spectra, quadratic forms."""

import numpy as np
import pytest

from curvop import (
    OperatorMatrix,
    Spectrum,
    TraceError,
    Sym2Basis,
    basis_lambda2,
    basis_s2_full,
    basis_s2_traceless,
    constant_curvature,
    coordinates,
    first_kind_matrix,
    lambda2_dim,
    operator_to_json,
    quad_form,
    random_curvature,
    random_traceless,
    reconstruct,
    s2_dim,
    s2_traceless_dim,
    scalar,
    second_kind_matrix,
    spectrum,
    sym2_operator_matrix,
)

from oracles import (
    loop_first_kind_action,
    loop_quad_form,
    loop_second_kind_action,
)


@pytest.mark.parametrize("n", range(2, 10))
def test_dimension_formulas(n):
    assert lambda2_dim(n) == n * (n - 1) // 2
    assert s2_dim(n) == n * (n + 1) // 2
    assert s2_traceless_dim(n) == (n - 1) * (n + 2) // 2
    assert s2_dim(n) == s2_traceless_dim(n) + 1
    assert len(basis_lambda2(n)) == lambda2_dim(n)
    assert basis_s2_full(n).dim == s2_dim(n)
    assert basis_s2_traceless(n).dim == s2_traceless_dim(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_orthonormality(n):
    assert basis_s2_full(n).gram_defect() <= 1e-12
    assert basis_s2_traceless(n).gram_defect() <= 1e-12
    B = np.stack(basis_lambda2(n))
    gram = np.einsum("aij,bij->ab", B, B)
    assert np.max(np.abs(gram - np.eye(len(B)))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_traceless_basis_traces(n):
    basis = basis_s2_traceless(n)
    assert basis.max_trace() <= 1e-14
    assert basis.traceless
    for el in basis.elements:
        np.testing.assert_array_equal(el, el.T)


def test_first_kind_matrix_is_component_table():
    T = random_curvature(seed=3, n=4, terms=2)
    M = first_kind_matrix(T).entries
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            assert M[a, b] == pytest.approx(
                T.components[i, j, k, l], rel=1e-13, abs=1e-13
            )


@pytest.mark.parametrize("n", [3, 4])
def test_first_kind_matrix_against_loop_action(n):
    T = random_curvature(seed=n, n=n, terms=2)
    basis = basis_lambda2(n)
    M = first_kind_matrix(T).entries
    for a, Ba in enumerate(basis):
        acted = loop_first_kind_action(T.components, Ba)
        for b, Bb in enumerate(basis):
            assert M[a, b] == pytest.approx(
                float(np.sum(acted * Bb)), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("n", [3, 4])
def test_second_kind_matrix_against_loop_action(n):
    T = random_curvature(seed=10 + n, n=n, terms=2)
    basis = basis_s2_traceless(n)
    M = second_kind_matrix(T).entries
    for a, Ba in enumerate(basis.elements):
        acted = loop_second_kind_action(T.components, Ba)
        for b, Bb in enumerate(basis.elements):
            assert M[a, b] == pytest.approx(
                float(np.sum(acted * Bb)), rel=1e-12, abs=1e-12
            )


def test_assembled_matrices_symmetric():
    for n in (3, 5, 7):
        T = random_curvature(seed=n, n=n, terms=3)
        for M in (first_kind_matrix(T), second_kind_matrix(T)):
            scale = max(1.0, np.max(np.abs(M.entries)))
            assert np.max(np.abs(M.entries - M.entries.T)) <= 1e-12 * scale


def test_operator_matrix_validation():
    basis = basis_s2_traceless(3)
    good = np.eye(basis.dim)
    M = OperatorMatrix(domain="s02", entries=good, basis=basis)
    assert M.dim == 5
    with pytest.raises(ValueError, match="asymmetric"):
        bad = good.copy()
        bad[0, 1] = 1e-6
        OperatorMatrix(domain="s02", entries=bad, basis=basis)
    with pytest.raises(ValueError, match="domain"):
        OperatorMatrix(domain="weird", entries=good, basis=basis)
    with pytest.raises(ValueError, match="does not match"):
        OperatorMatrix(domain="lambda2", entries=good, basis=basis)


def test_second_kind_requires_traceless_basis():
    T = constant_curvature(3, 1.0)
    with pytest.raises(ValueError, match="trace-free"):
        second_kind_matrix(T, basis_s2_full(3))
    with pytest.raises(ValueError, match="does not match"):
        second_kind_matrix(T, basis_s2_traceless(4))


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_space_form_spectra(n, kappa):
    T = constant_curvature(n, kappa)
    s1 = spectrum(first_kind_matrix(T))
    s2 = spectrum(second_kind_matrix(T))
    np.testing.assert_allclose(s1.values, kappa, rtol=0, atol=1e-10)
    np.testing.assert_allclose(s2.values, kappa, rtol=0, atol=1e-10)
    assert s1.multiplicities() == [(pytest.approx(kappa), lambda2_dim(n))]
    assert s2.multiplicities() == [(pytest.approx(kappa), s2_traceless_dim(n))]


def test_zero_tensor_zero_operators():
    T = CurvatureTensorZero = random_curvature(seed=0, n=4, terms=1) * 0.0
    assert np.all(first_kind_matrix(T).entries == 0.0)
    assert np.all(second_kind_matrix(T).entries == 0.0)
    assert np.all(spectrum(second_kind_matrix(T)).values == 0.0)


def test_eigenpair_residuals():
    T = random_curvature(seed=21, n=5, terms=3)
    M = second_kind_matrix(T).entries
    vals, vecs = np.linalg.eigh(M)
    norm = np.linalg.norm(M, 2)
    for a in range(len(vals)):
        res = np.linalg.norm(M @ vecs[:, a] - vals[a] * vecs[:, a])
        assert res <= 1e-9 * max(1.0, norm)


def test_spectrum_input_validation():
    with pytest.raises(ValueError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.5]))


def test_multiplicity_clustering():
    spec = Spectrum(np.array([0.0, 1e-9, 1.0, 2.0, 2.0 + 1e-8]))
    mult = spec.multiplicities()
    assert [c for _, c in mult] == [2, 1, 2]
    assert mult[0][0] == pytest.approx(5e-10, abs=1e-12)
    # A gap just above the relative threshold stays split.
    spec2 = Spectrum(np.array([1.0, 1.0 + 1e-6]))
    assert [c for _, c in spec2.multiplicities()] == [1, 1]
    assert len(spec2) == 2
    assert spec2[0] == 1.0
    assert spec2.min() == 1.0


def test_quad_form_against_loops_and_matrix_path():
    rng = np.random.default_rng(8)
    for n in (3, 4):
        T = random_curvature(seed=50 + n, n=n, terms=2)
        basis = basis_s2_traceless(n)
        M = second_kind_matrix(T, basis).entries
        for _ in range(3):
            E = random_traceless(n, rng)
            q = quad_form(T, E)
            assert q == pytest.approx(
                loop_quad_form(T.components, E.components), rel=1e-12, abs=1e-12
            )
            v = coordinates(E, basis)
            assert q == pytest.approx(float(v @ M @ v), rel=1e-10, abs=1e-10)


def test_quad_form_dual_path_bulk():
    """Randomized dual-path agreement at 1e-10 relative, many (T, E) pairs."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (3, 4, 5, 6):
        basis = basis_s2_traceless(n)
        for t in range(25):
            T = random_curvature(seed=int(rng.integers(2**31)), n=n, terms=1 + t % 3)
            M = second_kind_matrix(T, basis).entries
            scale = max(1.0, T.norm_inf())
            for _ in range(8):
                E = random_traceless(n, rng, unit=True)
                q = quad_form(T, E)
                v = coordinates(E, basis)
                q_mat = float(v @ M @ v)
                worst = max(worst, abs(q - q_mat) / max(1.0, abs(q), scale))
    assert worst <= 1e-10


def test_quad_form_rejects_bad_E():
    T = constant_curvature(3, 1.0)
    with pytest.raises(TraceError):
        quad_form(T, np.eye(3))
    with pytest.raises(ValueError):
        quad_form(T, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        quad_form(T, np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0.0]]))
    assert quad_form(T, np.zeros((3, 3))) == 0.0


def test_sphere_quad_form_is_norm_squared():
    T = constant_curvature(4, 1.0)
    E = random_traceless(4, 3)
    nsq = float(np.sum(E.components**2))
    assert quad_form(T, E) == pytest.approx(nsq, rel=1e-12)


def test_coordinates_roundtrip_and_parseval():
    basis = basis_s2_traceless(5)
    E = random_traceless(5, 17)
    v = coordinates(E, basis)
    assert v.shape == (basis.dim,)
    np.testing.assert_allclose(
        reconstruct(v, basis), E.components, rtol=0, atol=1e-12
    )
    assert np.linalg.norm(v) == pytest.approx(E.frobenius(), rel=1e-12)
    # Basis elements map to coordinate vectors.
    for a in (0, basis.dim - 1):
        v_a = coordinates(basis.elements[a], basis)
        np.testing.assert_allclose(v_a, np.eye(basis.dim)[a], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        coordinates(E, basis_s2_full(5))
    with pytest.raises(ValueError):
        reconstruct(np.zeros(3), basis)


def _rotated_basis(n: int, seed: int) -> Sym2Basis:
    base = basis_s2_traceless(n)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(base.dim, base.dim)))
    elements = tuple(np.einsum("ab,bij->aij", Q, base.stack))
    return Sym2Basis(n=n, elements=elements, traceless=True)


def test_spectrum_independent_of_basis_choice():
    for n in (3, 5):
        T = random_curvature(seed=60 + n, n=n, terms=2)
        ref = spectrum(second_kind_matrix(T)).values
        for seed in (1, 2):
            other = _rotated_basis(n, seed)
            assert other.gram_defect() <= 1e-10
            assert other.max_trace() <= 1e-12
            alt = spectrum(second_kind_matrix(T, other)).values
            np.testing.assert_allclose(alt, ref, rtol=0, atol=1e-9)


def test_orthogonal_frame_equivariance():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        T = random_curvature(seed=70 + n, n=n, terms=2)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = np.einsum(
            "ijkl,ia,jb,kc,ld->abcd", T.components, Q, Q, Q, Q, optimize=True
        )
        from curvop import CurvatureTensor

        T2 = CurvatureTensor(n, rotated)
        assert T2.symmetry_report.valid
        np.testing.assert_allclose(
            spectrum(second_kind_matrix(T2)).values,
            spectrum(second_kind_matrix(T)).values,
            rtol=0,
            atol=1e-9 * max(1.0, T.norm_inf()),
        )
        np.testing.assert_allclose(
            spectrum(first_kind_matrix(T2)).values,
            spectrum(first_kind_matrix(T)).values,
            rtol=0,
            atol=1e-9 * max(1.0, T.norm_inf()),
        )
        E = random_traceless(n, rng)
        E2 = Q.T @ E.components @ Q
        assert quad_form(T2, E2) == pytest.approx(
            quad_form(T, E), rel=1e-10, abs=1e-10
        )


def test_trace_identities():
    """tr over all symmetric matrices gives s/2; compression gives s(n+2)/(2n)."""
    for n in (3, 4, 6):
        for seed in (0, 1):
            T = random_curvature(seed=seed + 80 * n, n=n, terms=2)
            s = scalar(T)
            full = sym2_operator_matrix(T, basis_s2_full(n))
            assert full.domain == "s2"
            scale = max(1.0, abs(s))
            assert np.trace(full.entries) == pytest.approx(s / 2.0, abs=1e-10 * scale)
            compressed = second_kind_matrix(T)
            assert np.trace(compressed.entries) == pytest.approx(
                s * (n + 2) / (2.0 * n), abs=1e-10 * scale
            )


def test_operator_to_json():
    T = constant_curvature(3, 2.0)
    doc = operator_to_json(second_kind_matrix(T))
    assert doc["domain"] == "s02"
    assert doc["dim"] == 5
    np.testing.assert_allclose(np.array(doc["entries"]), 2.0 * np.eye(5), atol=1e-12)
