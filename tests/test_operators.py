"""Operator assembly, the fixed frame, spectra, quadratic forms."""

import warnings

import numpy as np
import pytest

from curvop import (
    CurvatureTensor,
    CurvopError,
    OperatorMatrix,
    Spectrum,
    TraceError,
    constant_curvature,
    coordinates,
    first_kind_matrix,
    k_verdict,
    lambda2_dim,
    operator_to_json,
    quad_form,
    random_curvature,
    random_traceless,
    reconstruct,
    s2_traceless_dim,
    scalar,
    second_kind_matrix,
    spectrum,
)

from oracles import (
    gram_first_kind,
    gram_second_kind,
    loop_basis_lambda2,
    loop_basis_s2,
    loop_first_kind_action,
    loop_quad_form,
    loop_second_kind_action,
)


@pytest.mark.parametrize("n", range(2, 10))
def test_dimension_formulas(n):
    assert lambda2_dim(n) == n * (n - 1) // 2
    assert s2_traceless_dim(n) == (n - 1) * (n + 2) // 2
    assert n * (n + 1) // 2 == s2_traceless_dim(n) + 1
    assert len(loop_basis_lambda2(n)) == lambda2_dim(n)
    assert len(loop_basis_s2(n, traceless=False)) == n * (n + 1) // 2
    assert len(loop_basis_s2(n)) == s2_traceless_dim(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_orthonormality(n):
    """The oracle bases are orthonormal, and the frame is reconstruct(e_a) of them."""
    for B in (loop_basis_lambda2(n), loop_basis_s2(n), loop_basis_s2(n, traceless=False)):
        gram = np.einsum("aij,bij->ab", B, B)
        assert np.max(np.abs(gram - np.eye(len(B)))) <= 1e-12
    N = s2_traceless_dim(n)
    frame = reconstruct(np.eye(N), n)
    assert frame.shape == (N, n, n)
    gram = np.einsum("aij,bij->ab", frame, frame)
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-14
    np.testing.assert_allclose(frame, loop_basis_s2(n), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_traceless_basis_traces(n):
    """Frame elements are trace-free and symmetric; coordinates inverts reconstruct."""
    N = s2_traceless_dim(n)
    frame = reconstruct(np.eye(N), n)
    assert np.max(np.abs(np.trace(frame, axis1=1, axis2=2))) <= 1e-14
    assert np.max(np.abs(np.trace(loop_basis_s2(n), axis1=1, axis2=2))) <= 1e-14
    np.testing.assert_array_equal(frame, np.swapaxes(frame, 1, 2))
    np.testing.assert_allclose(coordinates(frame), np.eye(N), rtol=0, atol=1e-14)
    v = np.random.default_rng(n).normal(size=(3, N))
    np.testing.assert_allclose(coordinates(reconstruct(v, n)), v, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", list(range(2, 9)) + [24, 40])
def test_gather_assembly_matches_einsum_gram_oracle(n):
    T = random_curvature(seed=100 + n, n=n, terms=3)
    bound = 1e-13 * max(1.0, T.norm_inf())
    first = first_kind_matrix(T).entries
    second = second_kind_matrix(T).entries
    assert np.max(np.abs(first - gram_first_kind(T.components, loop_basis_lambda2(n)))) <= bound
    assert np.max(np.abs(second - gram_second_kind(T.components, loop_basis_s2(n)))) <= bound


@pytest.mark.parametrize("n", range(3, 9))
def test_space_form_matrices_are_exact(n):
    """Both matrices are exactly kappa I on a space form, and so are the spectra.

    The first kind is a pure gather, so this holds for every kappa; the
    second kind's Helmert block is exact for these dyadic kappa.
    """
    for kappa in (0.5, 1.0, 2.0, -1.3):
        M = first_kind_matrix(constant_curvature(n, kappa))
        np.testing.assert_array_equal(M.entries, kappa * np.eye(M.dim))
        np.testing.assert_array_equal(spectrum(M).values, kappa)
    for kappa in (0.5, 1.0, 2.0):
        M = second_kind_matrix(constant_curvature(n, kappa))
        np.testing.assert_array_equal(M.entries, kappa * np.eye(M.dim))
        np.testing.assert_array_equal(spectrum(M).values, kappa)


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
    basis = loop_basis_lambda2(n)
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
    basis = loop_basis_s2(n)
    M = second_kind_matrix(T).entries
    for a, Ba in enumerate(basis):
        acted = loop_second_kind_action(T.components, Ba)
        for b, Bb in enumerate(basis):
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
    good = np.eye(5)
    M = OperatorMatrix(domain="s02", n=3, entries=good)
    assert M.dim == 5
    with pytest.raises(ValueError, match="asymmetric"):
        bad = good.copy()
        bad[0, 1] = 1e-6
        OperatorMatrix(domain="s02", n=3, entries=bad)
    with pytest.raises(ValueError, match="domain"):
        OperatorMatrix(domain="weird", n=3, entries=good)
    with pytest.raises(ValueError, match="does not match"):
        OperatorMatrix(domain="lambda2", n=3, entries=good)
    with pytest.raises(ValueError, match="does not match"):
        OperatorMatrix(domain="s02", n=4, entries=good)
    with pytest.raises(CurvopError, match="matrix entry is nan"):
        OperatorMatrix(domain="s02", n=3, entries=np.diag([np.nan, 1, 1, 1, 1]))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_values(bad):
    """A non-finite eigenvalue is an error, not a spectrum that fails a property."""
    with pytest.raises(CurvopError, match=f"eigenvalue is {float(bad)!r}"):
        Spectrum(np.array([bad, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_matrix(bad):
    """A NaN once came back as eigenvalues [0, -0] that k_verdict called nonnegative."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurvopError, match=f"matrix entry is {float(bad)!r}: the tensor is too large"):
            spectrum(np.array([[bad, 0.0], [0.0, 1.0]]))
        # Finite entries whose symmetrization overflows are rejected the same way.
        with pytest.raises(CurvopError, match="matrix entry is inf"):
            spectrum(np.full((2, 2), 1.5e308))
    assert k_verdict(spectrum(np.diag([0.0, 1.0])), 1.0).nonnegative


def test_overflowing_tensor_is_rejected_at_assembly_without_warnings():
    """Sectional curvatures of 1.5e308 overflow the second kind: an error, never a spectrum."""
    R = 1.5e308 * constant_curvature(3, 1.0).components
    T = CurvatureTensor(3, R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert T.symmetry_report.valid
        with pytest.raises(CurvopError, match="too large to evaluate"):
            second_kind_matrix(T)


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
        M = second_kind_matrix(T).entries
        for _ in range(3):
            E = random_traceless(n, rng)
            q = quad_form(T, E)
            assert q == pytest.approx(
                loop_quad_form(T.components, E.components), rel=1e-12, abs=1e-12
            )
            v = coordinates(E)
            assert q == pytest.approx(float(v @ M @ v), rel=1e-10, abs=1e-10)


def test_quad_form_dual_path_bulk():
    """Randomized dual-path agreement at 1e-10 relative, many (T, E) pairs."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for t in range(25):
            T = random_curvature(seed=int(rng.integers(2**31)), n=n, terms=1 + t % 3)
            M = second_kind_matrix(T).entries
            scale = max(1.0, T.norm_inf())
            for _ in range(8):
                E = random_traceless(n, rng, unit=True)
                q = quad_form(T, E)
                v = coordinates(E)
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
    E = random_traceless(5, 17)
    N = s2_traceless_dim(5)
    v = coordinates(E)
    assert v.shape == (N,)
    np.testing.assert_allclose(reconstruct(v, 5), E.components, rtol=0, atol=1e-12)
    assert np.linalg.norm(v) == pytest.approx(E.frobenius(), rel=1e-12)
    # Frame elements map to coordinate vectors, and the map is batched.
    basis = loop_basis_s2(5)
    np.testing.assert_allclose(coordinates(basis), np.eye(N), rtol=0, atol=1e-12)
    np.testing.assert_allclose(coordinates(np.stack([E.components] * 2))[1], v, rtol=0, atol=1e-15)
    # Trace and antisymmetric part are projected away.
    np.testing.assert_allclose(
        coordinates(E.components + 3.0 * np.eye(5) + np.triu(np.ones((5, 5)), 1)
                    - np.tril(np.ones((5, 5)), -1)),
        v, rtol=0, atol=1e-12,
    )
    with pytest.raises(ValueError):
        coordinates(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        reconstruct(np.zeros(3), 5)


def test_spectrum_independent_of_basis_choice():
    for n in (3, 5):
        T = random_curvature(seed=60 + n, n=n, terms=2)
        ref = spectrum(second_kind_matrix(T)).values
        base = loop_basis_s2(n)
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.normal(size=(len(base), len(base))))
            other = np.einsum("ab,bij->aij", Q, base)
            gram = np.einsum("aij,bij->ab", other, other)
            assert np.max(np.abs(gram - np.eye(len(base)))) <= 1e-10
            assert np.max(np.abs(np.trace(other, axis1=1, axis2=2))) <= 1e-12
            alt = spectrum(gram_second_kind(T.components, other)).values
            np.testing.assert_allclose(alt, ref, rtol=0, atol=1e-9)


def test_orthogonal_frame_equivariance():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        T = random_curvature(seed=70 + n, n=n, terms=2)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = np.einsum(
            "ijkl,ia,jb,kc,ld->abcd", T.components, Q, Q, Q, Q, optimize=True
        )
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
            full = gram_second_kind(T.components, loop_basis_s2(n, traceless=False))
            scale = max(1.0, abs(s))
            assert np.trace(full) == pytest.approx(s / 2.0, abs=1e-10 * scale)
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
