"""Capped-simplex weighted sums: greedy minimum, k-positivity, class calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvop.operators
from curvop import (
    AdmissibilityError,
    CurvopError,
    Spectrum,
    WeightClass,
    constant_curvature,
    einstein_certificate,
    greedy_min,
    k_sum,
    k_verdict,
)

from oracles import (
    bound_for_m,
    class_add,
    class_scale,
    greedy_weights,
    grid_min,
    lp_weight_min,
    sample_weights,
)


def test_k_sum_worked_examples():
    lam = [-1.0, 0.0, 2.0, 3.0]
    assert k_sum(lam, 1) == -1.0
    assert k_sum(lam, 1.5) == -1.0
    assert k_sum(lam, 2) == -1.0
    assert k_sum(lam, 2.5) == 0.0
    assert k_sum(lam, 4) == 4.0
    assert k_sum(Spectrum(np.array(lam)), 2.5) == 0.0


def test_k_sum_integer_k_drops_fraction():
    # k = N exactly: plain sum, no lam_{N+1} access.
    assert k_sum([1.0, 2.0], 2) == 3.0
    assert k_sum([5.0], 1) == 5.0


def test_k_sum_domain_errors():
    lam = [0.0, 1.0]
    with pytest.raises(ValueError):
        k_sum(lam, 0.9)
    with pytest.raises(ValueError):
        k_sum(lam, 2.2)
    with pytest.raises(ValueError):
        k_sum(lam, float("nan"))
    with pytest.raises(ValueError):
        k_sum([], 1)
    with pytest.raises(ValueError):
        k_sum([2.0, 1.0], 1)  # descending input is a caller bug


def test_k_verdict_rejects_nan_spectrum():
    """[nan, 1] once gave nonnegative=False, which the CLI reads as a failed property."""
    with pytest.raises(CurvopError, match="eigenvalue is nan"):
        k_verdict(np.array([np.nan, 1.0]), 1.0)
    with pytest.raises(CurvopError, match="eigenvalue is inf"):
        greedy_min([0.0, np.inf], WeightClass(1.0, 1.0))


def test_k_verdict_checks_its_spectrum_once(monkeypatch):
    """An array is checked once and a Spectrum not again, with the same bits.

    k_verdict once checked an array twice, and the Einstein certificate
    checked its already checked spectrum four times.
    """
    lam = np.array([-1.0, 0.25, 0.5, 2.0])
    expected = k_verdict(lam, 2.5)
    calls = []
    real = curvop.operators._spectra
    monkeypatch.setattr(curvop.operators, "_spectra", lambda v: calls.append(v) or real(v))
    assert k_verdict(lam, 2.5) == expected and len(calls) == 1
    assert expected.value == k_sum(lam, 2.5) == -0.5
    spec = Spectrum(lam)
    calls.clear()
    assert k_verdict(spec, 2.5) == expected and not calls
    einstein_certificate(constant_curvature(5, 1.0))
    assert len(calls) == 1


def test_k_verdicts():
    lam = [-1.0, 0.5, 2.0]
    v = k_verdict(lam, 1.0)
    assert not v.nonnegative and not v.positive and not v.boundary
    assert v.value == -1.0
    v = k_verdict(lam, 3.0)
    assert v.nonnegative and v.positive and not v.boundary
    v = k_verdict([-1.0, 1.0, 5.0], 2.0)
    assert v.boundary and v.nonnegative and not v.positive
    tiny = k_verdict([-5e-13, 1.0], 1.0)
    assert tiny.boundary and tiny.nonnegative and not tiny.positive
    assert k_verdict(lam, 3.0).nonnegative
    assert k_verdict(lam, 3.0).positive
    assert k_verdict(lam, 2.5).to_json()["k"] == 2.5


def test_weight_class_validation():
    with pytest.raises(ValueError):
        WeightClass(0.0, 1.0)
    with pytest.raises(ValueError):
        WeightClass(1.0, -2.0)
    with pytest.raises(ValueError):
        WeightClass(float("nan"), 1.0)
    cls = WeightClass(2.0, 3.0)
    assert cls.k == 1.5
    assert cls.admissible_for(2)
    assert not cls.admissible_for(1)
    with pytest.raises(AdmissibilityError):
        cls.require_admissible(1)


def test_greedy_min_worked_examples():
    assert greedy_min([-1.0, 0.0, 2.0, 3.0], WeightClass(1.0, 2.0)) == -1.0
    assert greedy_min([1.0, 2.0, 3.0], WeightClass(2.0, 3.0)) == 4.0
    # S = N * omega uses every weight at the cap.
    assert greedy_min([1.0, 2.0], WeightClass(1.0, 2.0)) == 3.0
    # S < omega puts everything on the smallest eigenvalue.
    assert greedy_min([2.0, 5.0], WeightClass(3.0, 1.0)) == 2.0
    with pytest.raises(AdmissibilityError):
        greedy_min([1.0, 2.0], WeightClass(1.0, 2.5))


def test_greedy_equals_constant_saturation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        N = int(rng.integers(2, 12))
        c = float(rng.normal())
        omega = float(rng.uniform(0.1, 3.0))
        total = float(rng.uniform(0.05, 1.0)) * N * omega
        got = greedy_min(np.full(N, c), WeightClass(omega, total))
        assert got == pytest.approx(total * c, rel=1e-12, abs=1e-12)


def test_greedy_matches_scaled_k_sum_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        N = int(rng.integers(2, 15))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.1, 4.0))
        # k_sum needs total/omega in [1, N]
        total = omega * float(rng.uniform(1.0, N))
        g = greedy_min(lam, WeightClass(omega, total))
        expected = omega * k_sum(lam, total / omega)
        assert g == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_greedy_against_lp_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        N = int(rng.integers(2, 10))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        total = float(rng.uniform(0.1, 0.99)) * N * omega
        g = greedy_min(lam, WeightClass(omega, total))
        lp = lp_weight_min(lam, omega, total)
        assert g == pytest.approx(lp, rel=1e-7, abs=1e-7)


def test_greedy_weights_attain_minimum():
    rng = np.random.default_rng(3)
    for _ in range(100):
        N = int(rng.integers(2, 12))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        total = float(rng.uniform(0.05, 1.0)) * N * omega
        cls = WeightClass(omega, total)
        w = greedy_weights(lam, cls)
        assert np.all(w >= -1e-15) and np.all(w <= omega * (1 + 1e-12))
        assert np.sum(w) == pytest.approx(total, rel=1e-12)
        assert float(w @ lam) == pytest.approx(
            greedy_min(lam, cls), rel=1e-12, abs=1e-12
        )


def test_grid_min_equals_greedy_on_grid_totals():
    # With S a multiple of omega/steps the greedy vertex lies on the grid,
    # so exhaustive search reproduces greedy_min exactly.
    rng = np.random.default_rng(4)
    for _ in range(25):
        N = int(rng.integers(2, 5))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        j = int(rng.integers(1, N * 100 + 1))
        total = j * omega / 100.0
        cls = WeightClass(omega, total)
        assert grid_min(lam, cls) == pytest.approx(
            greedy_min(lam, cls), rel=1e-9, abs=1e-9
        )


def test_grid_min_guards():
    with pytest.raises(ValueError, match="N <= 4"):
        grid_min(np.arange(5.0), WeightClass(1.0, 2.0))
    with pytest.raises(ValueError, match="grid"):
        grid_min([0.0, 1.0], WeightClass(1.0, 0.4440001))


def test_bound_for_m_examples_and_sweep():
    lam = [-2.0, -1.0, 1.0, 3.0]
    cls = WeightClass(1.0, 2.5)  # floor(S/omega) = 2
    best_m = 2
    best = bound_for_m(lam, cls, best_m)
    assert best == pytest.approx(greedy_min(lam, cls))
    for m in (1, 2, 3):
        assert bound_for_m(lam, cls, m) <= best + 1e-12
    with pytest.raises(ValueError):
        bound_for_m(lam, cls, 0)
    with pytest.raises(ValueError):
        bound_for_m(lam, cls, 5)
    with pytest.raises(ValueError):
        bound_for_m(lam, cls, 2.0)
    # m = N is only defined at full total.
    with pytest.raises(ValueError, match="m = N"):
        bound_for_m(lam, cls, 4)
    full = WeightClass(1.0, 4.0)
    assert bound_for_m(lam, full, 4) == pytest.approx(1.0)


def test_bound_for_m_maximized_at_greedy_m():
    rng = np.random.default_rng(5)
    for _ in range(300):
        N = int(rng.integers(2, 13))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        total = omega * float(rng.uniform(1.0, N * 0.999))
        cls = WeightClass(omega, total)
        g = greedy_min(lam, cls)
        m_star = int(total // omega)
        ms = range(1, N) if m_star < N else range(1, N + 1)
        values = {m: bound_for_m(lam, cls, m) for m in ms}
        for v in values.values():
            assert v <= g + 1e-12 * max(1.0, abs(g))
        if 1 <= m_star <= N - 1:
            assert values[m_star] == pytest.approx(g, rel=1e-12, abs=1e-12)
        best = max(values.values())
        assert best == pytest.approx(g, rel=1e-12, abs=1e-12)


def test_class_scale_and_add_rules():
    c = WeightClass(2.0, 5.0)
    sc = class_scale(0.5, c)
    assert (sc.omega, sc.total) == (1.0, 2.5)
    with pytest.raises(ValueError):
        class_scale(0.0, c)
    with pytest.raises(ValueError):
        class_scale(-1.0, c)
    total = class_add(WeightClass(1.0, 2.0), WeightClass(0.5, 1.0))
    assert (total.omega, total.total) == (1.5, 3.0)


def test_class_arithmetic_reproduces_bound_derivations():
    """The combined Ricci class and the Bochner class arise by scale-and-add."""
    for n in range(3, 12):
        N = (n - 1) * (n + 2) / 2.0
        a = class_scale((n - 1.0) / (n + 1.0), WeightClass(1.0, float(n)))
        b = class_scale(2.0 / ((n + 1.0) * (n + 2.0)), WeightClass(1.0, N))
        combined = class_add(a, b)
        assert combined.omega == pytest.approx(n / (n + 2.0), rel=1e-12)
        assert combined.total == pytest.approx(n - 1.0, rel=1e-12)
        bochner = class_add(combined, WeightClass(1.0, 1.0))
        assert bochner.omega == pytest.approx(2.0 * (n + 1.0) / (n + 2.0), rel=1e-12)
        assert bochner.total == pytest.approx(float(n), rel=1e-12)


def test_greedy_superadditive_under_class_addition():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 1000:
        N = int(rng.integers(2, 13))
        lam = np.sort(rng.normal(size=N))
        o1, o2 = rng.uniform(0.2, 2.0, size=2)
        t1 = float(rng.uniform(0.05, 0.999)) * N * o1
        t2 = float(rng.uniform(0.05, 0.999)) * N * o2
        c1, c2 = WeightClass(float(o1), t1), WeightClass(float(o2), t2)
        g12 = greedy_min(lam, class_add(c1, c2))
        g1 = greedy_min(lam, c1)
        g2 = greedy_min(lam, c2)
        assert g12 <= g1 + g2 + 1e-9 * max(1.0, abs(g1) + abs(g2))
        checked += 1


def test_scaling_commutes_with_greedy():
    rng = np.random.default_rng(7)
    for _ in range(100):
        N = int(rng.integers(2, 10))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        total = float(rng.uniform(0.05, 0.99)) * N * omega
        a = float(rng.uniform(0.1, 5.0))
        cls = WeightClass(omega, total)
        assert greedy_min(lam, class_scale(a, cls)) == pytest.approx(
            a * greedy_min(lam, cls), rel=1e-12, abs=1e-12
        )


def test_nonneg_implies_bound_fuzz():
    """(total/omega)-nonnegativity forces a nonnegative greedy minimum."""
    rng = np.random.default_rng(8)
    seen_nonvacuous = 0
    for _ in range(500):
        N = int(rng.integers(2, 13))
        lam = np.sort(rng.normal(size=N) + rng.uniform(-0.5, 1.5))
        omega = float(rng.uniform(0.2, 2.0))
        total = omega * float(rng.uniform(1.0, N))
        if k_verdict(lam, total / omega).nonnegative:
            assert greedy_min(lam, WeightClass(omega, total)) >= -1e-9
            seen_nonvacuous += 1
    assert seen_nonvacuous > 50


def test_sample_weights_feasible_and_deterministic():
    cls = WeightClass(0.7, 2.1)
    W = sample_weights(12, cls, N=6, count=400)
    assert W.shape == (400, 6)
    assert np.all(W >= -1e-12)
    assert np.all(W <= 0.7 + 1e-12)
    np.testing.assert_allclose(W.sum(axis=1), 2.1, rtol=0, atol=1e-9)
    W2 = sample_weights(12, cls, N=6, count=400)
    np.testing.assert_array_equal(W, W2)
    # Extreme rows hit the cap on floor(S/omega) coordinates.
    capped = np.sum(np.isclose(W, 0.7, atol=1e-12), axis=1)
    assert np.sum(capped == 3) >= 200
    with pytest.raises(AdmissibilityError):
        sample_weights(0, WeightClass(1.0, 7.0), N=6, count=10)
    with pytest.raises(ValueError):
        sample_weights(0, cls, N=6, count=0)


def test_sampled_weights_never_beat_greedy():
    rng = np.random.default_rng(9)
    for _ in range(30):
        N = int(rng.integers(2, 13))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.2, 2.0))
        total = float(rng.uniform(0.05, 0.999)) * N * omega
        cls = WeightClass(omega, total)
        W = sample_weights(rng, cls, N=N, count=1000)
        dots = W @ lam
        assert float(dots.min()) >= greedy_min(lam, cls) - 1e-9


# --- hypothesis properties ----------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.lists(finite, min_size=2, max_size=12),
    omega=st.floats(min_value=0.05, max_value=5.0),
    frac=st.floats(min_value=0.01, max_value=1.0),
)
def test_greedy_identity_property(lam, omega, frac):
    lam = np.sort(np.asarray(lam))
    N = lam.size
    total = omega * (1.0 + frac * (N - 1))
    cls = WeightClass(omega, total)
    g = greedy_min(lam, cls)
    assert g == pytest.approx(omega * k_sum(lam, total / omega), rel=1e-11, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=10),
    data=st.data(),
)
def test_k_sum_monotone_in_k_for_nonnegative_spectra(lam, data):
    lam = np.sort(np.asarray(lam))
    N = lam.size
    k1 = data.draw(st.floats(min_value=1.0, max_value=float(N)))
    k2 = data.draw(st.floats(min_value=k1, max_value=float(N)))
    assert k_sum(lam, k2) >= k_sum(lam, k1) - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    lam=st.lists(finite, min_size=2, max_size=10),
    omega=st.floats(min_value=0.1, max_value=3.0),
    frac=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_feasible_weights_respect_greedy_property(lam, omega, frac, seed):
    lam = np.sort(np.asarray(lam))
    N = lam.size
    cls = WeightClass(omega, frac * N * omega)
    W = sample_weights(seed, cls, N=N, count=8)
    scale = max(1.0, float(np.max(np.abs(lam))) * cls.total)
    assert float((W @ lam).min()) >= greedy_min(lam, cls) - 1e-9 * scale
