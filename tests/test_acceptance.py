"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS`` line when it succeeds (visible
with ``pytest -s``); under ``pytest -v`` the per-test PASSED/FAILED line carries
the same information.  Runtime-limited criteria assert their own wall-clock
budget so a regression in speed fails the gate, not just a regression in math.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from curvop import (
    WeightClass,
    all_checks,
    constant_curvature,
    first_kind_matrix,
    fuzz_campaign,
    greedy_min,
    k_sum,
    product_spheres,
    second_kind_matrix,
    spectrum,
    threshold_profile,
)

from oracles import bound_for_m, grid_min, random_traceless, sample_weights, traceless_ricci


def _announce(tag: str):
    print(f"ACCEPTANCE {tag}: PASS")


@pytest.fixture(scope="module")
def campaign():
    """Shared single-threaded fuzz campaign, consumed by three criteria."""
    return fuzz_campaign(
        seed=2024,
        trials_per_n=1000,
        ns=(3, 4, 5, 6, 7, 8),
        e_per_tensor=200,
        jobs=1,
    )


def test_01_space_form_calibration():
    """Both operator spectra of a space form are constant kappa (< 1 s)."""
    start = time.perf_counter()
    for n in range(3, 9):
        for kappa in (0.5, 1.0, 2.0):
            T = constant_curvature(n, kappa)
            second = spectrum(second_kind_matrix(T)).values
            assert second.size == (n - 1) * (n + 2) // 2
            np.testing.assert_allclose(second, kappa, rtol=0, atol=1e-9)
            first = spectrum(first_kind_matrix(T)).values
            assert first.size == n * (n - 1) // 2
            np.testing.assert_allclose(first, kappa, rtol=0, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"calibration took {elapsed:.2f}s"
    _announce("1 space-form calibration")


def test_02_greedy_bound_oracle():
    """Sampled weights never beat greedy_min - 1e-9; exhaustive grids for
    N <= 4 never find a vector below greedy_min - 1e-6 (< 30 s)."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240202)
    for _ in range(200):
        N = int(rng.integers(2, 15))
        lam = np.sort(rng.normal(size=N))
        for _ in range(50):
            omega = float(rng.uniform(0.1, 2.0))
            total = float(rng.uniform(0.02, 1.0)) * N * omega
            cls = WeightClass(omega, total)
            g = greedy_min(lam, cls)
            W = sample_weights(rng, cls, N=N, count=200)
            assert float((W @ lam).min()) >= g - 1e-9
        if N <= 4:
            for _ in range(10):
                omega = float(rng.uniform(0.1, 2.0))
                j = int(rng.integers(1, N * 100 + 1))
                cls = WeightClass(omega, j * omega / 100.0)
                assert grid_min(lam, cls) >= greedy_min(lam, cls) - 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"greedy oracle took {elapsed:.2f}s"
    _announce("2 greedy-bound oracle")


def test_03_per_count_bounds_sweep():
    """Every per-count relaxation stays below the greedy bound and the
    count floor(total/omega) attains it, exactly within 1e-12."""
    rng = np.random.default_rng(20240303)
    for _ in range(1000):
        N = int(rng.integers(2, 15))
        lam = np.sort(rng.normal(size=N))
        omega = float(rng.uniform(0.1, 2.0))
        total = omega * float(rng.uniform(1.0, N * 0.999))
        cls = WeightClass(omega, total)
        g = greedy_min(lam, cls)
        m_star = int(total // omega)
        tol = 1e-12 * max(1.0, abs(g))
        values = {m: bound_for_m(lam, cls, m) for m in range(1, N)}
        for v in values.values():
            assert v <= g + tol
        assert abs(values[m_star] - g) <= tol
        assert abs(max(values.values()) - g) <= tol
    _announce("3 per-count bound sweep")


def test_04_inequality_fuzz(campaign):
    """6000 seeded tensors x 200 trace-free probes: zero violations at
    -1e-9 * scale (< 5 min single-threaded)."""
    assert campaign.tensors == 6000
    assert campaign.e_per_tensor == 200
    assert campaign.ok, f"violations: {[v.to_json() for v in campaign.violations]}"
    for name, worst in campaign.min_scaled_margins.items():
        assert worst >= -1e-9, (name, worst)
    assert campaign.elapsed < 300.0, f"campaign took {campaign.elapsed:.1f}s"
    _announce("4 inequality fuzz")


def test_05_equality_saturation():
    """Space forms saturate all five bounds to 1e-10: the constant spectrum
    collapses every weighted bound to total * kappa."""
    for n in range(3, 9):
        for kappa in (0.5, 1.0, 2.0, -1.3):
            T = constant_curvature(n, kappa)
            E = random_traceless(n, 7 * n, unit=True)
            for report in all_checks(T, E=E):
                assert abs(report.margin) <= 1e-10, (n, kappa, report.name)
            N = (n - 1) * (n + 2) // 2
            lam = np.full(N, kappa)
            for total in (1.0, float(n), N / 2.0):
                assert greedy_min(lam, WeightClass(1.0, total)) == pytest.approx(
                    total * kappa, rel=1e-12
                )
    _announce("5 equality saturation")


def test_06_non_einstein_products_fail_threshold():
    """Unbalanced sphere products sit strictly below the Einstein-threshold
    partial sum: the certificate correctly refuses them."""
    T = product_spheres(2, 3, 1.0, 1.0)
    lam = spectrum(second_kind_matrix(T)).values
    thr = threshold_profile(5).einstein_threshold
    assert thr == pytest.approx(35.0 / 12.0, rel=1e-15)
    assert k_sum(lam, thr) < -1e-6

    checked = 0
    for p, q in itertools.combinations_with_replacement((2, 3, 4), 2):
        for r1, r2 in itertools.product((0.7, 1.0, 1.5), repeat=2):
            T = product_spheres(p, q, r1, r2)
            if traceless_ricci(T).frobenius() <= 0.1:
                continue
            lam = spectrum(second_kind_matrix(T)).values
            thr = threshold_profile(p + q).einstein_threshold
            assert k_sum(lam, thr) < -1e-6, (p, q, r1, r2)
            checked += 1
    assert checked >= 30
    _announce("6 non-Einstein products rejected")


def test_07_threshold_table():
    """Dimension thresholds match their closed forms exactly in doubles."""
    expected = {3: 15 / 8, 4: 12 / 5, 7: 63 / 16, 10: 4.0, 14: 4.0}
    for n, value in expected.items():
        prof = threshold_profile(n)
        assert prof.constant_curvature_threshold == value
        if n <= 7:
            assert prof.einstein_threshold == value
    _announce("7 threshold table")


def test_08_dual_path_identities(campaign):
    """Index-contraction, matrix, and eigen-decomposition quadratic forms
    agree to 1e-9 relative across the whole fuzz suite."""
    assert campaign.max_quad_dual_rel <= 1e-9
    assert campaign.max_eig_dual_rel <= 1e-9
    _announce("8 dual-path identities")


SPHERE = '{"model": "constant_curvature", "n": 4, "kappa": 1.0}'
PRODUCT = '{"model": "product_spheres", "p": 2, "q": 3, "r1": 1.0, "r2": 1.0}'


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "curvop", *args], capture_output=True, text=True
    )


def test_09_cli_contract():
    """All six subcommands: byte-identical reruns under --no-timestamp and
    the 0/1/2 exit-code contract."""
    deterministic = [
        ("spectrum", "--model", SPHERE, "--format", "json", "--no-timestamp"),
        ("check", "--model", SPHERE, "--k", "2.0", "--format", "json",
         "--no-timestamp"),
        ("bounds", "--model", PRODUCT, "--format", "json", "--no-timestamp"),
        ("fuzz", "--seed", "11", "--trials", "3", "--n", "3", "--n", "4",
         "--e-per-tensor", "2", "--format", "json", "--no-timestamp"),
        ("threshold", "--n", "14", "--format", "json", "--no-timestamp"),
        ("models", "--format", "json", "--no-timestamp"),
    ]
    for args in deterministic:
        a = _run(*args)
        b = _run(*args)
        assert a.returncode == 0, (args, a.stderr)
        assert a.stdout == b.stdout and a.stdout, args

    # exit 0: hypothesis satisfied
    assert _run("check", "--model", SPHERE, "--k", "2.0").returncode == 0
    # exit 1: well-formed input, negative verdict
    assert _run("check", "--model", PRODUCT, "--k", "1.0").returncode == 1
    # exit 2: bad input, each subcommand
    assert _run("spectrum", "--model", "{broken").returncode == 2
    assert _run("check", "--model", SPHERE, "--k", "99").returncode == 2
    assert _run("bounds", "--input", "/nonexistent.json").returncode == 2
    assert _run("fuzz", "--trials", "0").returncode == 2
    assert _run("threshold", "--n", "2").returncode == 2
    json.loads(_run("models", "--format", "json", "--no-timestamp").stdout)
    _announce("9 CLI contract")


def test_10_fixed_seed_fuzz_report(campaign):
    """The fixed-seed campaign's report keeps every byte: a refactor moves no margin."""
    digest = hashlib.sha256(json.dumps(campaign.to_json()).encode()).hexdigest()[:16]
    assert digest == "e5fe84363ef458a0", digest
    _announce("10 fixed-seed fuzz report")
