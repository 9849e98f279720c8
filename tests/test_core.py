"""Curvature tensor construction, validation, contractions, serialization."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvop import (
    TAU_SYM,
    CurvatureTensor,
    CurvopError,
    InvalidTensorError,
    SchemaError,
    Sym2Tensor,
    TraceError,
    TracelessSym2,
    constant_curvature,
    kulkarni_nomizu,
    random_curvature,
    ricci,
    scalar,
    tensor_from_json,
    tensor_to_json,
    validate_symmetries,
)
from curvop.core import (
    _SLAB_BYTES,
    SymmetryReport,
    _random_stack,
    _require_valid_stack,
    _symmetry_residuals,
)
from curvop.operators import first_kind_matrix, spectrum

from oracles import (
    _loop_orbit,
    dense_symmetry_residuals,
    loop_kulkarni_nomizu,
    loop_tensor_from_json,
    loop_tensor_to_json,
    loop_ricci,
    loop_scalar,
    loop_symmetry_residuals,
    random_traceless,
    slice_ricci,
    traceless_ricci,
)


def test_constant_curvature_symmetries_exact():
    T = constant_curvature(3, 1.0)
    rep = T.symmetry_report
    assert rep.antisymmetry == 0.0
    assert rep.pair_symmetry == 0.0
    assert rep.first_bianchi == 0.0
    assert rep.valid
    assert rep.verdict == "valid"


@pytest.mark.parametrize("n", [3, 4])
def test_symmetry_report_matches_loop_oracle(n):
    T = random_curvature(seed=11 * n, n=n, terms=2)
    rep = validate_symmetries(T)
    anti, pair, bianchi = loop_symmetry_residuals(T.components)
    assert rep.antisymmetry == pytest.approx(anti, abs=1e-15)
    assert rep.pair_symmetry == pytest.approx(pair, abs=1e-15)
    assert rep.first_bianchi == pytest.approx(bianchi, abs=1e-15)
    assert rep.valid


def _perturbed(R, seed, eps):
    """A copy of R with eps added to three random components."""
    R = R.copy()
    R.reshape(-1)[np.random.default_rng(seed).integers(R.size, size=3)] += eps
    return R


def _assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# At n = 23 and 40 the tensor spans several slabs of _SLAB_BYTES (10 and 2
# first indices each), and at 23 the last slab is partial.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 23, 40])
def test_slab_residuals_are_bitwise_the_dense_reference(n):
    assert 23**4 * 8 > _SLAB_BYTES
    valid = random_curvature(n, n).components
    garbage = np.random.default_rng(n).normal(size=(n,) * 4)
    for seed, R in enumerate([valid, _perturbed(valid, n, 1e-3), garbage]):
        want = dense_symmetry_residuals(R)
        _assert_bitwise(_symmetry_residuals(R), want)
        rep = validate_symmetries(CurvatureTensor(n, R))
        expected = SymmetryReport(
            *map(float, want), tol=TAU_SYM * float(np.max(np.abs(R)))
        )
        assert rep == expected
        if not rep.valid:
            with pytest.raises(InvalidTensorError) as info:
                _require_valid_stack(R[None])
            assert str(info.value) == str(InvalidTensorError(expected))


# (5, 8) and (32, 6) are fuzz blocks, one slab each; (3, 20) spans four slabs.
@pytest.mark.parametrize("B, n", [(5, 8), (32, 6), (3, 20)])
def test_slab_residuals_of_stacks_are_bitwise_the_dense_reference(B, n):
    R = np.stack([random_curvature(100 * n + b, n).components for b in range(B)])
    _assert_bitwise(_symmetry_residuals(R), dense_symmetry_residuals(R))
    bad = R.copy()
    bad[B // 2] = _perturbed(R[B // 2], B, 1e-3)
    bad[-1] = _perturbed(R[-1], n, 1e-2)
    want = dense_symmetry_residuals(bad)
    _assert_bitwise(_symmetry_residuals(bad), want)
    with pytest.raises(InvalidTensorError) as info:
        _require_valid_stack(bad)
    b = B // 2
    tol = TAU_SYM * float(np.max(np.abs(bad[b])))
    assert info.value.report == SymmetryReport(*(float(r[b]) for r in want), tol=tol)


def test_validation_holds_no_full_size_temporary():
    T = random_curvature(1, 40)
    tracemalloc.start()
    try:
        assert validate_symmetries(T).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * _SLAB_BYTES < T.components.nbytes / 4


def test_symmetry_report_needs_its_tolerance():
    with pytest.raises(TypeError):
        SymmetryReport(0.0, 0.0, 0.0)


def test_single_entry_perturbation_detected():
    base = constant_curvature(3, 1.0).components.copy()
    base[0, 1, 0, 1] += 1e-3
    T = CurvatureTensor(3, base)
    rep = T.symmetry_report
    assert rep.antisymmetry == pytest.approx(1e-3, rel=1e-9)
    assert not rep.valid
    with pytest.raises(InvalidTensorError) as err:
        T.require_valid()
    assert err.value.report is rep


def test_symmetry_tolerance_scales_with_the_max_norm():
    # Scaling a valid tensor scales its rounding residue (~2e-9 here, above
    # the unscaled 1e-9), so the tolerance scales with the max-norm, below 1 too.
    T = 1e6 * random_curvature(5, 5)
    rep = T.symmetry_report
    assert rep.max_violation > TAU_SYM
    assert rep.tol == TAU_SYM * T.norm_inf()
    assert type(rep.tol) is float
    assert rep.valid
    assert T.require_valid() is T
    assert constant_curvature(3, 0.5).symmetry_report.tol == TAU_SYM * 0.5


def test_scaled_tensor_with_relative_bianchi_defect_is_rejected():
    base = random_curvature(5, 5)
    # One orbit of R[0,1,2,3] breaks only the first Bianchi identity.
    defect = tensor_from_json(
        {"n": 5, "entries": [{"i": 0, "j": 1, "k": 2, "l": 3, "v": 1e-3 * base.norm_inf()}]}
    )
    T = 1e6 * (base + defect)
    rep = T.symmetry_report
    assert rep.first_bianchi == pytest.approx(1e-3 * T.norm_inf(), rel=0.05)
    assert rep.antisymmetry <= rep.tol and rep.pair_symmetry <= rep.tol
    assert not rep.valid
    with pytest.raises(InvalidTensorError, match="first Bianchi"):
        T.require_valid()


def test_bianchi_violation_detected():
    # One orbit of R[0,1,2,3] alone satisfies both antisymmetries and the
    # pair symmetry but not the cyclic identity.
    T = tensor_from_json(
        {"n": 4, "entries": [{"i": 0, "j": 1, "k": 2, "l": 3, "v": 1.0}]}
    )
    rep = T.symmetry_report
    assert rep.antisymmetry == 0.0
    assert rep.pair_symmetry == 0.0
    assert rep.first_bianchi == pytest.approx(1.0)
    assert not rep.valid


def test_constructor_shape_and_dimension_errors():
    with pytest.raises(ValueError):
        CurvatureTensor(3, np.zeros((3, 3, 3, 2)))
    with pytest.raises(ValueError):
        CurvatureTensor(4, np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError):
        CurvatureTensor(1, np.zeros((1, 1, 1, 1)))


def test_components_read_only():
    T = constant_curvature(3, 2.0)
    with pytest.raises(ValueError):
        T.components[0, 1, 0, 1] = 5.0


def test_constructor_copies_the_callers_array():
    arr = random_curvature(seed=4, n=3).components.copy()
    T = CurvatureTensor(3, arr)
    before = T.components.copy()
    arr[0, 1, 0, 1] += 99.0
    np.testing.assert_array_equal(T.components, before)
    assert arr.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_scalar_against_loops(n):
    for seed in range(3):
        T = random_curvature(seed=seed + 100 * n, n=n, terms=2)
        ric = ricci(T).components
        expected = loop_ricci(T.components)
        np.testing.assert_allclose(ric, expected, rtol=1e-12, atol=1e-14)
        assert scalar(T) == pytest.approx(loop_scalar(T.components), rel=1e-12)


def test_ricci_against_slice_route_bulk():
    """1000 seeded tensors across n = 2..8, slice-sum route, 1e-12 relative."""
    count = 0
    for n in range(2, 9):
        for seed in range(143):
            T = random_curvature(seed=seed + 1000 * n, n=n, terms=1 + seed % 3)
            ric = ricci(T).components
            expected = slice_ricci(T.components)
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(ric - expected)) <= 1e-12 * scale
            count += 1
    assert count >= 1000


def test_ricci_requires_valid_tensor():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 0, 0, 0] = 1.0  # violates antisymmetry
    with pytest.raises(InvalidTensorError):
        ricci(CurvatureTensor(3, bad))


def test_ricci_too_large_for_a_double_raises_the_precision_error():
    """4e307 * S^4 has Ricci entries of 1.2e308, whose exact symmetrization overflows."""
    T = 4e307 * constant_curvature(4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for contraction in (ricci, scalar):
            with pytest.raises(CurvopError, match="too large to evaluate in double precision"):
                contraction(T)


def test_sphere_ricci_scalar_closed_form():
    for n in range(2, 9):
        for kappa in (0.5, 1.0, 2.0):
            T = constant_curvature(n, kappa)
            np.testing.assert_allclose(
                ricci(T).components, (n - 1) * kappa * np.eye(n), atol=1e-14
            )
            assert scalar(T) == pytest.approx(n * (n - 1) * kappa, rel=1e-14)


def test_sym2_canonical_storage():
    A = np.array([[1.0, 2.0], [2.0, 5.0]])
    S = Sym2Tensor(2, A)
    assert np.array_equal(S.components, S.components.T)
    with pytest.raises(ValueError):
        Sym2Tensor(2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_traceless_guard():
    with pytest.raises(TraceError):
        TracelessSym2(2, np.array([[0.1, 0.0], [0.0, 0.0]]))
    E = TracelessSym2(2, np.array([[1.0, 0.5], [0.5, -1.0]]))
    assert E.trace() == 0.0
    # |tr| / ||.||_F is 1.4e-16 at any scale; at 1e-170 a plain sum of
    # squares underflows to 0, so the norm must not be taken that way.
    TracelessSym2(2, 1e-170 * np.array([[1.0, 0.5], [0.5, -1.0 + 2.0**-52]]))


def test_traceless_ricci_projection():
    for seed in (0, 1, 2):
        T = random_curvature(seed=seed, n=5, terms=3)
        E = traceless_ricci(T)
        assert abs(E.trace()) <= 1e-12 * (E.frobenius() + 1.0)
        ric = ricci(T)
        np.testing.assert_allclose(
            E.components + (ric.trace() / 5.0) * np.eye(5),
            ric.components,
            rtol=0,
            atol=1e-10 * max(1.0, abs(ric.trace())),
        )
    # Large-scale tensor: the guard must still pass.
    big = constant_curvature(7, 1729.0)
    assert traceless_ricci(big).frobenius() <= 1e-9


def test_kulkarni_nomizu_against_loops():
    rng = np.random.default_rng(42)
    raw_h, raw_k = rng.normal(size=(2, 4, 4))
    h, k = (raw_h + raw_h.T) / 2, (raw_k + raw_k.T) / 2
    got = kulkarni_nomizu(h, k)
    np.testing.assert_allclose(
        got.components, loop_kulkarni_nomizu(h, k), rtol=1e-14, atol=1e-14
    )
    assert got.symmetry_report.valid
    assert got.symmetry_report.max_violation <= 1e-12


def test_kulkarni_nomizu_bilinear():
    rng = np.random.default_rng(7)
    raw_h, raw_k = rng.normal(size=(2, 3, 3))
    h, k = (raw_h + raw_h.T) / 2, (raw_k + raw_k.T) / 2
    np.testing.assert_array_equal(
        kulkarni_nomizu(2.0 * h, k).components,
        2.0 * kulkarni_nomizu(h, k).components,
    )
    np.testing.assert_allclose(
        kulkarni_nomizu(0.7 * h, k).components,
        0.7 * kulkarni_nomizu(h, k).components,
        rtol=0,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        kulkarni_nomizu(h, k).components,
        kulkarni_nomizu(k, h).components,
        rtol=0,
        atol=1e-13,
    )


def test_metric_square_is_constant_curvature():
    for n in (2, 3, 5):
        for kappa in (0.5, 1.0, 2.0):
            g = np.eye(n)
            np.testing.assert_array_equal(
                (0.5 * kappa * kulkarni_nomizu(g, g)).components,
                constant_curvature(n, kappa).components,
            )


def test_kulkarni_nomizu_shape_errors():
    with pytest.raises(ValueError):
        kulkarni_nomizu(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        kulkarni_nomizu(np.zeros((3, 2)), np.zeros((3, 2)))


def test_random_curvature_deterministic_and_valid():
    a = random_curvature(seed=123, n=5, terms=3)
    b = random_curvature(seed=123, n=5, terms=3)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.fingerprint == b.fingerprint
    c = random_curvature(seed=124, n=5, terms=3)
    assert not np.array_equal(a.components, c.components)
    for seed in range(5):
        for n in (3, 4, 6):
            T = random_curvature(seed=seed, n=n, terms=1 + seed % 3)
            assert T.symmetry_report.valid
    with pytest.raises(ValueError):
        random_curvature(seed=0, n=3, terms=0)


def test_a_stack_of_mixed_term_counts_is_bitwise_each_tensor_drawn_alone():
    draws = [(11, 5), (12, 1), (13, 7)]
    rngs = [np.random.default_rng(seed) for seed, _ in draws]
    R = _random_stack(rngs, 4, [terms for _, terms in draws])
    for b, (seed, terms) in enumerate(draws):
        assert R[b].tobytes() == random_curvature(seed, 4, terms).components.tobytes()


#: Each pin is the fingerprint of the draw as the two dense KN kernels made
#: it, reloaded through its entry list: the heads are those kernels' bits.
@pytest.mark.parametrize("seed, n, terms, fingerprint", [
    (1, 4, 5, "fff3baa656d38e52"),
    (2, 6, 7, "7b6c17bc0d907fe0"),
    (3, 3, 4, "90168880b442bb81"),
])
def test_random_curvature_keeps_its_bits_beyond_three_terms(seed, n, terms, fingerprint):
    assert random_curvature(seed, n, terms).fingerprint == fingerprint


_KN_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e100, 1e100))
_KN_PAIRS = st.integers(2, 5).flatmap(
    lambda n: arrays(np.float64, (2, n, n), elements=_KN_ENTRIES)
)


def _heads(n):
    return [(i, j, k, l) for i in range(n) for j in range(i + 1, n)
            for k in range(n) for l in range(k + 1, n) if (i, j) <= (k, l)]


@settings(max_examples=60, deadline=None)
@given(_KN_PAIRS)
def test_kulkarni_nomizu_is_the_loop_oracle_at_every_head(hk):
    """Each head is the loop product to the bit, zero signs included (after
    canonicalization), and every other component is exactly +-its head or 0."""
    h, k = hk
    R = kulkarni_nomizu(h, k).components
    want = loop_kulkarni_nomizu(h, k) + 0.0
    n, written = h.shape[0], np.zeros(R.shape, dtype=bool)
    for head in _heads(n):
        assert R[head].tobytes() == want[head].tobytes(), head
        for *member, v in _loop_orbit(*head, R[head]):
            assert R[tuple(member)] == v
            written[tuple(member)] = True
    assert not R[~written].any()


def _round_trip_is_bitwise(T):
    back = tensor_from_json(tensor_to_json(T))
    assert back.components.tobytes() == T.components.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 5))
def test_random_curvature_round_trips_bitwise(seed, n, terms):
    _round_trip_is_bitwise(random_curvature(seed, n, terms))


@settings(max_examples=60, deadline=None)
@given(_KN_PAIRS)
def test_kulkarni_nomizu_round_trips_bitwise(hk):
    _round_trip_is_bitwise(kulkarni_nomizu(*hk))


def test_kn_square_of_psd_matrix_gives_psd_first_kind():
    # The first-kind operator of h^h acts on a 2-form A as a multiple of
    # (h A h); for positive semidefinite h that form is a sum of squares.
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4))
    h = raw @ raw.T  # PSD by construction
    T = kulkarni_nomizu(h, h)
    eigs = spectrum(first_kind_matrix(T)).values
    assert eigs[0] >= -1e-10 * max(1.0, abs(eigs[-1]))
    # An indefinite h does not give a PSD operator (sign structure matters).
    h_indef = np.diag([1.0, -1.0, 1.0, 1.0])
    T2 = kulkarni_nomizu(h_indef, h_indef)
    assert spectrum(first_kind_matrix(T2)).min() < -1.0


def test_random_traceless_properties():
    E = random_traceless(5, 99, unit=True)
    assert abs(E.trace()) <= 1e-12 * (E.frobenius() + 1.0)
    assert E.frobenius() == pytest.approx(1.0, rel=1e-12)
    same = random_traceless(5, 99, unit=True)
    np.testing.assert_array_equal(E.components, same.components)
    gen = np.random.default_rng(4)
    other = random_traceless(5, gen)
    assert other.frobenius() > 0


def test_tensor_addition_and_scaling():
    a = random_curvature(seed=1, n=3, terms=1)
    b = random_curvature(seed=2, n=3, terms=2)
    total = a + 2.0 * b
    np.testing.assert_array_equal(
        total.components, a.components + 2.0 * b.components
    )
    assert total.symmetry_report.valid
    assert (-a).components[0, 1, 0, 1] == -a.components[0, 1, 0, 1]
    with pytest.raises(ValueError):
        a + random_curvature(seed=3, n=4, terms=1)


# --- JSON interchange ---------------------------------------------------------


def test_tensor_json_roundtrip_bitwise_for_exact_tensors():
    # Models have exactly symmetric components, so completion reproduces
    # every entry bitwise.
    for T in (constant_curvature(4, 0.75), constant_curvature(3, -2.0)):
        back = tensor_from_json(tensor_to_json(T))
        np.testing.assert_array_equal(back.components, T.components)
        assert back.fingerprint == T.fingerprint


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tensor_json_roundtrip_canonicalizes(n):
    # A random tensor is written out from its orbit heads, so the entry list
    # keeps every bit: reloading gives the tensor back, each representative
    # is stored as listed, and a second round trip writes the same document.
    T = random_curvature(seed=n, n=n, terms=2)
    doc = tensor_to_json(T)
    assert doc["n"] == n
    back = tensor_from_json(doc)
    assert back.components.tobytes() == T.components.tobytes()
    for e in doc["entries"]:
        assert back.components[e["i"], e["j"], e["k"], e["l"]] == e["v"]
    assert tensor_to_json(back) == doc


def test_json_completion_from_single_entry():
    doc = {"n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "v": 2.5}]}
    T = tensor_from_json(doc)
    np.testing.assert_array_equal(
        T.components, constant_curvature(2, 2.5).components
    )


def test_json_symmetry_conflict_rejected():
    doc = {
        "n": 2,
        "entries": [
            {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0},
            {"i": 1, "j": 0, "k": 0, "l": 1, "v": 1.0},  # must be -1.0
        ],
    }
    with pytest.raises(SchemaError, match="conflict"):
        tensor_from_json(doc)


def test_json_duplicate_consistent_entry_accepted():
    doc = {
        "n": 2,
        "entries": [
            {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0},
            {"i": 1, "j": 0, "k": 0, "l": 1, "v": -1.0},
        ],
    }
    T = tensor_from_json(doc)
    assert T.components[0, 1, 0, 1] == 1.0


def test_json_repeated_index_nonzero_rejected():
    # R[0,0,k,l] = 0 is forced by antisymmetry; a nonzero value conflicts
    # with its own orbit.
    doc = {"n": 3, "entries": [{"i": 0, "j": 0, "k": 1, "l": 2, "v": 1.0}]}
    with pytest.raises(SchemaError, match="conflict"):
        tensor_from_json(doc)


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        tensor_from_json([1, 2, 3])
    with pytest.raises(SchemaError):
        tensor_from_json({"entries": []})
    with pytest.raises(SchemaError):
        tensor_from_json({"n": 1, "entries": []})
    with pytest.raises(SchemaError):
        tensor_from_json({"n": True, "entries": []})
    with pytest.raises(SchemaError):
        tensor_from_json({"n": 3, "entries": {}})
    with pytest.raises(SchemaError):
        tensor_from_json({"n": 3, "entries": [[0, 1, 0, 1, 1.0]]})
    with pytest.raises(SchemaError, match="out of range"):
        tensor_from_json(
            {"n": 3, "entries": [{"i": 0, "j": 3, "k": 0, "l": 1, "v": 1.0}]}
        )
    with pytest.raises(SchemaError, match="missing"):
        tensor_from_json({"n": 3, "entries": [{"i": 0, "j": 1, "k": 0, "v": 1.0}]})
    with pytest.raises(SchemaError, match="non-integer"):
        tensor_from_json(
            {"n": 3, "entries": [{"i": 0.5, "j": 1, "k": 0, "l": 1, "v": 1.0}]}
        )
    with pytest.raises(SchemaError, match="non-numeric"):
        tensor_from_json(
            {"n": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "v": "x"}]}
        )


def test_json_degenerate_conflict_prints_plain_floats():
    doc = {"n": 3, "entries": [{"i": 1, "j": 1, "k": 2, "l": 0, "v": 2.5}]}
    with pytest.raises(SchemaError) as err:
        tensor_from_json(doc)
    assert str(err.value) == (
        "entry 0 conflicts with an earlier entry at component (1,1,2,0): 2.5 vs -2.5"
    )


def test_json_first_offending_entry_wins():
    conflict = {"i": 0, "j": 0, "k": 1, "l": 2, "v": 1.0}  # conflicts with itself
    fine = {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0}
    missing = {"i": 0, "j": 1, "k": 0, "v": 1.0}
    with pytest.raises(SchemaError, match="^entry 0 conflicts"):
        tensor_from_json({"n": 3, "entries": [conflict, fine, missing]})
    with pytest.raises(SchemaError, match="^entry 1 is missing key 'l'"):
        tensor_from_json({"n": 3, "entries": [fine, missing, conflict]})
    partner = {"i": 1, "j": 0, "k": 0, "l": 1, "v": 1.0}  # must be -1.0
    with pytest.raises(SchemaError, match="^entry 1 conflicts"):
        tensor_from_json({"n": 3, "entries": [fine, partner, [0, 1, 0, 1]]})


def test_json_conflicts_are_judged_relative_to_the_entry():
    """c = 2^j scales every value exactly, so a conflict stays one over j in [-60, 60]."""
    head = {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1e-13}
    for partner_v in (3e-13, 1e-13 * (1.0 + 1e-9)):
        partner = {"i": 1, "j": 0, "k": 1, "l": 0, "v": partner_v}
        for j in range(-60, 61):
            c = math.ldexp(1.0, j)
            doc = {"n": 3, "entries": [{**e, "v": c * e["v"]} for e in (head, partner)]}
            for loader in (tensor_from_json, loop_tensor_from_json):
                with pytest.raises(SchemaError, match="^entry 1 conflicts"):
                    loader(doc)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-overflow"],
)
def test_json_rejects_values_that_are_not_finite_doubles(bad):
    fine = {"i": 0, "j": 1, "k": 0, "l": 1, "v": 1.0}
    doc = {"n": 3, "entries": [fine, {"i": 0, "j": 2, "k": 0, "l": 2, "v": bad}]}
    with pytest.raises(SchemaError, match="^entry 1 has non-finite value$"):
        tensor_from_json(doc)


_ORBIT_SLOTS = [
    ((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1),
    ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1), ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1),
]


def _break(entry, n, how):
    """``entry`` with one schema fault of kind ``how``."""
    if not isinstance(entry, dict):
        return entry
    if how == "not an object":
        return [entry.get(key) for key in "ijklv"]
    entry = dict(entry)
    if how == "missing key":
        entry.pop("l", None)
    elif how == "missing value":
        entry.pop("v", None)
    elif how == "index type":
        entry["j"] = True
    elif how == "float index":
        entry["k"] = 1.0
    elif how == "index range":
        entry["i"] = n
    elif how == "negative index":
        entry["l"] = -1
    elif how == "value type":
        entry["v"] = "1.0"
    else:
        entry["v"] = None
    return entry


_FAULTS = ["not an object", "missing key", "missing value", "index type", "float index",
           "index range", "negative index", "value type", "null value"]


@st.composite
def entry_documents(draw):
    """Entry lists over a few orbits: duplicates, orbit partners, conflicts,
    degenerate orbits (i == j or k == l), signed zeros, tiny values, and
    schema faults at random positions."""
    n = draw(st.integers(2, 5))
    index = st.integers(0, n - 1)
    value = st.sampled_from(
        [0.0, -0.0, 1e-13, -4e-13, 5e-13, 6e-13, 1.0, -2.5, 3, np.float64(1.5)]
    ) | st.floats(-4.0, 4.0, allow_nan=False)
    bases = draw(st.lists(st.tuples(st.tuples(index, index, index, index), value),
                          min_size=1, max_size=4))
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        ijkl, v = draw(st.sampled_from(bases))
        slots, sign = draw(st.sampled_from(_ORBIT_SLOTS))
        w = sign * v
        w = draw(st.sampled_from(
            [w, w, -w, w * (1 + 1e-13), w * (1 + 1e-11), w + 1e-13, 0.0]
        ))
        entries.append({**dict(zip("ijkl", (ijkl[s] for s in slots))), "v": w})
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        pos = draw(st.integers(0, len(entries) - 1))
        entries[pos] = _break(entries[pos], n, draw(st.sampled_from(_FAULTS)))
    return {"n": n, "entries": entries}


def _load(loader, doc):
    try:
        return loader(doc).components.tobytes()
    except SchemaError as bad:
        return re.sub(r"np\.float64\((.*?)\)", r"\1", str(bad))


@settings(max_examples=400, deadline=None)
@given(entry_documents())
def test_json_loader_matches_the_loop_oracle(doc):
    # Same components bit for bit, or the same error at the same entry; the
    # oracle prints stored components as np.float64(...), the loader as floats.
    assert _load(tensor_from_json, doc) == _load(loop_tensor_from_json, doc)


def _partner(entry, slots, sign, scale=1.0):
    ijkl = [entry[key] for key in "ijkl"]
    return {**dict(zip("ijkl", (ijkl[s] for s in slots))), "v": sign * entry["v"] * scale}


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_json_loader_takes_partners_in_any_order_beyond_small_n(n):
    """Each entry swapped for a random signed partner, with exact duplicates,
    in shuffled order, loads bitwise to the same tensor; one partner off by
    1e-11 relative raises the oracle's error."""
    rng = np.random.default_rng(n)
    doc = tensor_to_json(random_curvature(seed=n, n=n))
    want = loop_tensor_from_json(doc).components.tobytes()
    entries = [_partner(e, *_ORBIT_SLOTS[rng.integers(8)]) for e in doc["entries"]]
    entries += [dict(entries[p]) for p in rng.integers(len(entries), size=len(entries) // 4)]
    entries = [entries[p] for p in rng.permutation(len(entries))]
    doc = {"n": n, "entries": entries}
    assert tensor_from_json(doc).components.tobytes() == want

    pos = int(rng.choice(np.flatnonzero([abs(e["v"]) >= 1.0 for e in entries])))
    off = _partner(entries[pos], *_ORBIT_SLOTS[rng.integers(8)], scale=1.0 + 1e-11)
    entries.insert(int(rng.integers(pos + 1, len(entries) + 1)), off)
    error = _load(loop_tensor_from_json, doc)
    assert re.fullmatch(r"entry \d+ conflicts with an earlier entry at component "
                        r"\(\d+,\d+,\d+,\d+\): \S+ vs \S+", error)
    assert _load(tensor_from_json, doc) == error


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 40])
def test_tensor_to_json_matches_the_loop_oracle(n):
    T = random_curvature(seed=100 + n, n=n, terms=2)
    doc = tensor_to_json(T)
    assert doc == loop_tensor_to_json(T)
    assert all(type(e["v"]) is float and type(e["i"]) is int for e in doc["entries"])


def test_json_loader_peak_memory_stays_near_the_tensor():
    """The loader adopts the array it fills and frees its temporaries early."""
    for n in (24, 40):
        doc = tensor_to_json(random_curvature(seed=3, n=n))
        tracemalloc.start()
        try:
            T = tensor_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * T.components.nbytes, n


def test_json_zero_tensor():
    T = tensor_from_json({"n": 3, "entries": []})
    assert np.all(T.components == 0.0)
    assert tensor_to_json(T) == {"n": 3, "entries": []}


def test_fingerprint_distinguishes_tensors():
    a = constant_curvature(3, 1.0)
    b = constant_curvature(3, 1.0 + 1e-12)
    assert a.fingerprint != b.fingerprint
    assert len(a.fingerprint) == 16
