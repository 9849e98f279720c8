"""The batched fuzz engine: blocks, seed streams, stacked checks, and the per-trial oracle."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvop import (
    CHECK_NAMES,
    CurvatureTensor,
    CurvopError,
    InvalidTensorError,
    all_checks,
    fuzz_campaign,
    random_curvature,
    ricci,
    tensor_from_json,
    validate_symmetries,
)
from curvop.base import _BLOCK_PROBE_BYTES, _probe_slices
from curvop.core import TAU_TRACE, _fingerprint, _require_valid_stack
from curvop.operators import (
    _second_kind_entries,
    _spectra,
    coordinates,
    reconstruct,
    s2_traceless_dim,
    second_kind_matrix,
)
from curvop.verify import (
    _blocks,
    _fuzz_block,
    _probe_draws,
    _probe_terms,
    _tensor_draws,
    _trial_seed,
)

from oracles import (
    fuzz_trial_seed,
    fuzz_trials,
    loop_kulkarni_nomizu,
    loop_ricci_term,
    loop_tensor_from_json,
    loop_tensor_to_json,
    random_traceless,
)

NS = (3, 4, 5, 6, 7, 8)


def test_blocks_cover_each_n_in_order_within_both_caps():
    # A block holds at most 32 trials of one n, whatever their probes ...
    assert _blocks((3, 4), 70) == [
        (3, 0, 32), (3, 32, 32), (3, 64, 6), (4, 70, 32), (4, 102, 32), (4, 134, 6),
    ]
    assert _blocks((8,), 12) == [(8, 0, 12)]
    # ... and 512 KiB of probe entries hold five trials of 200 probes at n = 8 ...
    assert _probe_slices(8, 12, 200) == [slice(0, 5), slice(5, 10), slice(10, 12)]
    assert [s.stop - s.start for s in _probe_slices(8, 32, 200)] == [5] * 6 + [2]
    # ... and a probe slice keeps one trial however large its probes are.
    assert _probe_slices(8, 2, 10**6) == [slice(0, 1), slice(1, 2)]


def test_trial_seed_is_the_seed_sequence_of_seed_and_index():
    for seed, idx in ((0, 0), (3, 7), (2**40, 12345)):
        assert _trial_seed(seed, idx) == fuzz_trial_seed(seed, idx)
        assert isinstance(_trial_seed(seed, idx), int)


def test_campaign_seeds_draw_independent_streams():
    """Campaigns 0 and 3 shared 14 of their first 30 tensors at n = 3 under seed XOR index."""
    prints = {}
    for seed in range(8):
        _, _, _, R = _tensor_draws(seed, 3, 0, 30)
        prints[seed] = {_fingerprint(r) for r in R}
    assert not prints[0] & prints[3]
    assert len(set().union(*prints.values())) == 8 * 30


def _padded_alternating_sum(trial_seed, n, terms):
    """A trial's tensor as first drawn: dense KN squares, zero-padded to
    three terms and summed from +0.0, then reloaded from its orbit heads."""
    raw = np.zeros((3, n, n))
    raw[:terms] = np.random.default_rng(trial_seed).normal(size=(terms, n, n))
    total = np.zeros((n,) * 4)
    for a, h in enumerate(np.triu(m) + np.triu(m, 1).T for m in raw):
        total += (-1) ** a * loop_kulkarni_nomizu(h, h)
    dense = CurvatureTensor(n, total)
    return loop_tensor_from_json(loop_tensor_to_json(dense)).components


@pytest.mark.parametrize("n, start, count", [(3, 0, 32), (3, 4, 1), (5, 7, 13), (8, 2, 5)])
def test_block_tensors_are_bitwise_the_trials_drawn_alone(n, start, count):
    """A block mixes 1, 2 and 3 terms (or has one trial); its padding changes no bit."""
    trial_seeds, terms, _, R = _tensor_draws(17, n, start, count)
    for b, (trial_seed, m) in enumerate(zip(trial_seeds, terms)):
        alone = random_curvature(trial_seed, n, m).components
        assert R[b].tobytes() == alone.tobytes(), (b, m)
        assert alone.tobytes() == _padded_alternating_sum(trial_seed, n, m).tobytes()


@pytest.mark.parametrize("n", [3, 5, 8])
def test_probes_continue_each_trials_one_stream_past_its_tensor(n):
    """A trial's probe coordinates are its generator's next P * (n-1)(n+2)/2
    normals, each row scaled to unit norm, and the probes are their matrices,
    flattened to rows."""
    P, N = 7, s2_traceless_dim(n)
    trial_seeds, terms, rngs, _ = _tensor_draws(23, n, 3, 3)
    assert terms == [1, 2, 3]
    C, e = _probe_draws(rngs, n, P)
    assert C.shape == (3, P, N) and e.shape == (3, P, n * n)
    Eb = e.reshape(3, P, n, n)
    assert Eb.tobytes() == reconstruct(C, n).tobytes()
    for coords, probes, trial_seed, m in zip(C, Eb, trial_seeds, terms):
        rng = np.random.default_rng(trial_seed)
        rng.standard_normal(m * n * n)  # the tensor's normals
        raw = rng.standard_normal((P, N))
        raw /= np.sqrt(np.einsum("pi,pi->p", raw, raw))[:, None]
        assert coords.tobytes() == raw.tobytes()

        norms = np.sqrt(np.sum(probes * probes, axis=(1, 2)))
        assert np.array_equal(probes, np.swapaxes(probes, 1, 2))
        assert np.all(np.abs(np.trace(probes, axis1=1, axis2=2)) <= TAU_TRACE * norms)
        assert np.max(np.abs(norms - 1.0)) <= 1e-15
        assert np.max(np.abs(coordinates(probes) - coords)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32),
    count=st.integers(1, 3),
    P=st.integers(1, 4),
    size=st.floats(1e-3, 1e3),
)
def test_probe_norms_and_ricci_terms_are_the_loop_contractions(n, seed, count, P, size):
    """|E|^2 and sum Ric[i,j] E[i,t] E[j,t] from the flat rows, to 1e-13 of the sums of |terms|."""
    rng = np.random.default_rng(seed)
    ric = np.stack([ricci(random_curvature(seed + b, n, 1 + b)).components for b in range(count)])
    E = size * np.stack([[random_traceless(n, rng).components for _ in range(P)]
                         for _ in range(count)])
    nsq, ric_term = _probe_terms(E.reshape(count, P, n * n), ric)
    assert nsq.shape == ric_term.shape == (count, P)
    for b in range(count):
        for p in range(P):
            squares = sum(x * x for x in E[b, p].ravel().tolist())
            assert abs(nsq[b, p] - squares) <= 1e-13 * squares
            bound = 1e-13 * loop_ricci_term(np.abs(ric[b]), np.abs(E[b, p]))
            assert abs(ric_term[b, p] - loop_ricci_term(ric[b], E[b, p])) <= bound


@pytest.mark.parametrize("n", [3, 8, 40])
def test_stacked_second_kind_matrices_are_bitwise_the_single_ones(n):
    tensors = [random_curvature(seed, n, 1 + seed % 3) for seed in range(2 if n == 40 else 6)]
    stacked = _second_kind_entries(np.stack([T.components for T in tensors]))
    for T, M in zip(tensors, stacked):
        assert M.tobytes() == second_kind_matrix(T).entries.tobytes()


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    trials_per_n=st.sampled_from([5, 33]),
    e_per_tensor=st.integers(1, 12),
)
@example(seed=112, trials_per_n=33, e_per_tensor=1)
def test_blocks_match_the_per_trial_oracle(seed, trials_per_n, e_per_tensor):
    """Every trial of every block agrees with the same trial run alone.

    With 33 trials per n a block boundary falls inside each n.  A margin
    agrees to rounding in its larger side: at seed 112 a Bochner margin of
    about 477 at scale 12.5 moved by 1.7e-13.
    """
    tol_base = 1e-9
    items = [(i * trials_per_n + t, n) for i, n in enumerate(NS) for t in range(trials_per_n)]
    expected = fuzz_trials(seed, items, e_per_tensor, tol_base)
    got = []
    for block in _blocks(NS, trials_per_n):
        n, start, count = block
        trial_seeds, terms, _, R = _tensor_draws(seed, n, start, count)
        res = _fuzz_block((seed, block, e_per_tensor, tol_base))
        assert res["violations"] == []
        for b in range(count):
            got.append({
                "idx": start + b,
                "trial_seed": trial_seeds[b],
                "terms": terms[b],
                "fingerprint": _fingerprint(R[b]),
                "scale": res["scale"][b],
                "margins": {name: res["margins"][name][b] for name in CHECK_NAMES},
                "tols": {name: res["tols"][name][b] for name in CHECK_NAMES},
                "quad_rel": res["quad_rel"][b],
                "eig_rel": res["eig_rel"][b],
            })
    assert [g["idx"] for g in got] == [idx for idx, _ in items]
    for g, e in zip(got, expected):
        for key in ("trial_seed", "terms", "fingerprint", "scale"):
            assert g[key] == e[key], (g["idx"], key)
        assert random_curvature(g["trial_seed"], e["n"], g["terms"]).fingerprint == g["fingerprint"]
        for name in CHECK_NAMES:
            size = max(e["scale"], abs(e["lhs"][name]), abs(e["rhs"][name]))
            assert abs(g["margins"][name] - e["margins"][name]) <= 1e-14 * size, name
            assert g["tols"][name] == pytest.approx(e["tols"][name], rel=1e-14, abs=0)
        assert g["quad_rel"] <= 1e-9 and g["eig_rel"] <= 1e-9

    summary = fuzz_campaign(seed, trials_per_n, ns=NS, e_per_tensor=e_per_tensor)
    assert summary.tensors == len(items) and summary.ok
    for name in CHECK_NAMES:
        worst = min(e["margins"][name] / e["scale"] for e in expected)
        assert abs(summary.min_scaled_margins[name] - worst) <= 1e-14


@pytest.mark.parametrize("n, count, e_per_tensor, sizes", [
    (8, 12, 200, [5, 5, 2]),
    (8, 3, 1100, [1, 1, 1]),  # 1100 probes at n = 8 exceed 512 KiB
    (16, 3, 1, [1, 1, 1]),  # so does the reordered tensor at n = 16
])
def test_probe_slices_leave_each_trial_bitwise_its_block_of_one(n, count, e_per_tensor, sizes):
    """Slices split the block's probes; no margin, tol, scale or dual-path error moves a bit."""
    seed, start, tol_base = 29, 40, 1e-9
    assert [s.stop - s.start for s in _probe_slices(n, count, e_per_tensor)] == sizes
    block = _fuzz_block((seed, (n, start, count), e_per_tensor, tol_base))
    for b in range(count):
        alone = _fuzz_block((seed, (n, start + b, 1), e_per_tensor, tol_base))
        for key in ("scale", "quad_rel", "eig_rel"):
            assert block[key][b].tobytes() == alone[key][0].tobytes(), (b, key)
        for key in ("margins", "tols"):
            for name in CHECK_NAMES:
                assert block[key][name][b].tobytes() == alone[key][name][0].tobytes(), (b, name)


def test_a_block_holds_one_probe_slice_at_a_time():
    """32 trials, 200 probes: at n = 8 the block's probes alone would take 3.3 MB.

    Drawn one slice at a time, the n = 8 block peaks at about 3.1 MB, most
    of it the tensor stage; drawn all at once it peaks at about 5.9 MB,
    and run through the kernel all at once at about 10 MB.  At n = 3 the
    32 trials make one slice of 0.46 MB of probes, and the block peaks at
    about 1.7 MB, since the kernel holds no E-free check along the probes.
    """
    for n, bound in ((8, 9 * _BLOCK_PROBE_BYTES), (3, 4.5 * 32 * 200 * 3 * 3 * 8)):
        args = (5, (n, 0, 32), 200, 1e-9)
        _fuzz_block(args)  # builds the frame of n outside the measurement
        tracemalloc.start()
        try:
            _fuzz_block(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)


def test_a_probe_slice_counts_the_kernels_reordered_copy_of_each_tensor():
    """A slice is sized by max(P n^2, n^4) * 8 bytes a trial, its probe rows or its S.

    The slices of the benchmark's shape (25 trials of 200 probes, n = 3 to
    16) are those of the probe rows alone.  With one probe a trial, eight
    trials at n = 16 made one slice whose S took 4 MiB; now each trial is
    its own slice, and the block peaks at about 7.1 MiB, not 10.3 MiB.
    """
    for n in range(3, 17):
        size = _BLOCK_PROBE_BYTES // (200 * n * n * 8) or 1
        assert [s.stop - s.start for s in _probe_slices(n, 25, 200)] == \
            [min(size, 25 - lo) for lo in range(0, 25, size)], n
    assert _probe_slices(24, 8, 1) == [slice(b, b + 1) for b in range(8)]
    assert _probe_slices(12, 8, 1) == [slice(0, 3), slice(3, 6), slice(6, 8)]
    args = (5, (16, 0, 8), 1, 1e-9)
    _fuzz_block(args)
    tracemalloc.start()
    try:
        _fuzz_block(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20


def test_report_is_identical_for_one_and_two_jobs_across_a_mid_n_block(tmp_path):
    """Blocks of 32 split each n; with tol = 0 rounding-level margins persist violators too."""
    a = fuzz_campaign(11, 40, ns=(3, 4), e_per_tensor=4, tol=0.0, regression_dir=tmp_path)
    b = fuzz_campaign(11, 40, ns=(3, 4), e_per_tensor=4, tol=0.0, regression_dir=tmp_path,
                      jobs=2)
    assert a.violations
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


E_FREE = CHECK_NAMES[:3]


def test_violations_are_the_failed_margins_in_trial_order_and_replay(tmp_path):
    seed, trials = 3, 33
    s = fuzz_campaign(seed, trials, ns=(3, 4), e_per_tensor=3, tol=0.0, regression_dir=tmp_path)
    failed = []
    for block in _blocks((3, 4), trials):
        res = _fuzz_block((seed, block, 3, 0.0))
        failed += [(v.trial_index, v.check) for v in res["violations"]]
        for name in CHECK_NAMES:
            for b in np.flatnonzero(res["margins"][name] < 0.0):
                assert (block[1] + b, name) in failed
    order = {name: c for c, name in enumerate(CHECK_NAMES)}
    assert failed == sorted(failed, key=lambda f: (f[0], order[f[1]]))
    assert [(v.trial_index, v.check) for v in s.violations] == failed
    for v in s.violations:
        assert v.margin < 0.0 and v.trial_seed == _trial_seed(seed, v.trial_index)
        T = random_curvature(v.trial_seed, v.n, terms=v.terms)
        assert T.fingerprint == v.fingerprint
        back = tensor_from_json(json.loads(open(v.path).read()))
        assert back.components.tobytes() == T.components.tobytes()
        if v.check in E_FREE:
            # The file's tensor is the trial's, so it replays an E-free margin to the bit.
            replayed = {r.name: r.margin for r in all_checks(back, tol=0.0)}[v.check]
            assert replayed == v.margin, (v.trial_index, v.check)
    assert {v.check for v in s.violations} & set(E_FREE)


def test_each_violator_file_rebuilds_its_tensor_from_its_meta(tmp_path):
    s = fuzz_campaign(3, 33, ns=(3, 4), e_per_tensor=3, tol=0.0, regression_dir=tmp_path)
    files = sorted(tmp_path.glob("violator_*.json"))
    assert files and {v.path for v in s.violations} == {str(f) for f in files}
    for f in files:
        meta = json.loads(f.read_text())["meta"]
        assert meta["seed"] == 3 and "path" not in meta
        assert meta["trial_seed"] == _trial_seed(3, meta["trial_index"])
        T = random_curvature(meta["trial_seed"], meta["n"], terms=meta["terms"])
        assert f.name == f"violator_{T.fingerprint}.json" == f"violator_{meta['fingerprint']}.json"
        back = tensor_from_json(json.loads(f.read_text()))
        assert back.components.tobytes() == T.components.tobytes()


def test_stacked_spectra_reject_non_finite_and_descending_rows():
    good = np.array([[0.0, 1.0], [-2.0, 3.0]])
    np.testing.assert_array_equal(_spectra(good), good)
    with pytest.raises(CurvopError, match="eigenvalue is nan"):
        _spectra(np.array([[0.0, 1.0], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="ascending"):
        _spectra(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_stack_validation_reports_the_first_invalid_tensor():
    valid = random_curvature(1, 4).components
    garbage = np.random.default_rng(2).normal(size=(4,) * 4)
    # Each tensor is judged at its own scale, so a large valid one passes.
    _require_valid_stack(np.stack([1e6 * valid, valid]))
    with pytest.raises(InvalidTensorError) as info:
        _require_valid_stack(np.stack([valid, garbage, garbage]))
    expected = validate_symmetries(CurvatureTensor(4, garbage))
    assert info.value.report.to_json() == expected.to_json()
