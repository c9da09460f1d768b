"""Stream determinism, portability, and distributional sanity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from eucbv.env import make_environment, reward_noise
from eucbv.rng import (
    DOMAIN_POLICY,
    DOMAIN_REWARDS,
    TILE_UNIFORMS,
    StreamBatch,
    _bm_angle,
    _bm_radius,
    _box_muller,
    _mix64_np,
    gamma_constants,
)
from oracles import RngStream, derive_key, mix64

# Three lanes whose counters differ, so a draw that mixes up lanes or
# counters cannot match the per-lane references.
KEYS = [derive_key(17, k) for k in range(3)]
COUNTERS = [0, 5, 17]


def _three_lanes():
    batch = StreamBatch(np.array(KEYS, dtype=np.uint64))
    batch.counters[:] = COUNTERS
    refs = [RngStream(key, counter) for key, counter in zip(KEYS, COUNTERS)]
    return batch, refs


def test_mix64_python_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2 ** 64, size=1000, dtype=np.uint64)
    expected = np.array([mix64(int(v)) for v in values], dtype=np.uint64)
    assert np.array_equal(_mix64_np(values), expected)


# splitmix64's first five outputs from state 0: mix64(j * GOLDEN), j = 1..5.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                    0xF88BB8A8724C81EC, 0x1B39896A51A8749B]


def test_splitmix64_known_answers():
    assert [mix64(j * 0x9E3779B97F4A7C15) for j in range(1, 6)] == SPLITMIX64_SEED0
    want = [(out >> 11) * 2.0 ** -53 for out in SPLITMIX64_SEED0]
    assert StreamBatch(np.array([0], dtype=np.uint64)).uniform_block(5)[0].tolist() == want
    assert RngStream(0).uniforms(5).tolist() == want


def test_same_key_replays_identically():
    a = StreamBatch.for_runs(7, [3])
    b = StreamBatch.for_runs(7, [3])
    assert ([a.uniform_block(1)[0, 0] for _ in range(100)]
            == [b.uniform_block(1)[0, 0] for _ in range(100)])


def test_distinct_runs_differ():
    a, b = StreamBatch.for_runs(7, [0, 1]).uniform_block(100)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.3


def test_domains_do_not_collide():
    assert (StreamBatch.for_runs(7, [0], DOMAIN_REWARDS).keys
            != StreamBatch.for_runs(7, [0], DOMAIN_POLICY).keys).all()


def test_stream_independent_of_run_count():
    # The stream for run k is a function of (seed, k) only.
    few = StreamBatch.for_runs(99, range(10))
    many = StreamBatch.for_runs(99, range(100))
    assert np.array_equal(few.uniform_block(50)[4], many.uniform_block(50)[4])


def test_negative_run_index_rejected():
    with pytest.raises(ValueError):
        StreamBatch.for_runs(1, [-1])


def test_uniforms_block_equals_scalar_sequence():
    s = RngStream(derive_key(11, 5))
    block = StreamBatch.for_runs(11, [5]).uniform_block(64)[0]
    assert np.array_equal(np.array([s.uniform() for _ in range(64)]), block)
    batch, refs = _three_lanes()
    got = batch.uniform_block(9)
    for lane, ref in enumerate(refs):
        assert np.array_equal(got[lane], ref.uniforms(9))
    assert batch.counters.tolist() == [c + 9 for c in COUNTERS]


def test_single_step_draws_match_scalar_streams():
    # one uniform per lane, through a one-step block and through uniform_lanes
    batch, refs = _three_lanes()
    every = np.arange(len(refs))
    for _ in range(2):
        assert batch.uniform_block(1)[:, 0].tolist() == [ref.uniform() for ref in refs]
        assert batch.uniform_lanes(every).tolist() == [ref.uniform() for ref in refs]
    assert batch.counters.tolist() == [c + 4 for c in COUNTERS]


def test_uniform_lanes_matches_scalar_streams():
    batch, refs = _three_lanes()
    for lanes in ([0, 2], [1], [2, 1, 0]):
        got = batch.uniform_lanes(np.array(lanes))
        assert got.tolist() == [refs[lane].uniform() for lane in lanes]
    assert batch.counters.tolist() == [ref.counter for ref in refs]


def test_normal_blocks_match_scalar_box_muller():
    batch, refs = _three_lanes()
    got = batch.normal_block(1)[:, 0]
    want = [oracles.box_muller(ref.uniform(), ref.uniform()) for ref in refs]
    assert got.tolist() == want
    block = batch.normal_block(5)
    for lane, ref in enumerate(refs):
        want = [oracles.box_muller(ref.uniform(), ref.uniform()) for _ in range(5)]
        assert block[lane].tolist() == want
    assert batch.counters.tolist() == [ref.counter for ref in refs]


def _untiled_normals(keys, n):
    """normal_block's values drawn as one (R, 2n) uniform block."""
    u = StreamBatch(keys).uniform_block(2 * n)
    return _box_muller(u[:, 0::2], u[:, 1::2])


@pytest.mark.parametrize("tile,n,lanes", [
    # the default tile: 81 lanes of 200 uniforms fill one tile, 82 need two
    *((TILE_UNIFORMS, 100, lanes) for lanes in (1, 81, 82, 83, 164, 165)),
    # a small tile puts boundaries every few lanes and inside odd counts
    *((64, n, lanes) for n in (1, 5, 32, 33) for lanes in (1, 2, 3, 7, 8, 9)),
])
def test_tiled_normal_block_equals_untiled(monkeypatch, tile, n, lanes):
    monkeypatch.setattr("eucbv.rng.TILE_UNIFORMS", tile)
    keys = np.array([derive_key(23, k) for k in range(lanes)], dtype=np.uint64)
    batch = StreamBatch(keys)
    got = batch.normal_block(n)
    assert np.array_equal(got, _untiled_normals(keys, n))
    assert batch.counters.tolist() == [2 * n] * lanes
    # a second block continues every lane's stream where the first stopped
    assert np.array_equal(batch.normal_block(n), _untiled_normals(keys, 2 * n)[:, n:])


def test_box_muller_halves_compose_bit_for_bit():
    # the edge uniforms 0 and 1 - 2**-53, then random pairs
    rng = np.random.default_rng(4)
    top = 1.0 - 2.0 ** -53
    u1 = np.concatenate([[0.0, 0.0, top, top, 2.0 ** -53], rng.random(995)])
    u2 = np.concatenate([[0.0, top, 0.0, top, 0.5], rng.random(995)])
    full = _box_muller(u1, u2)
    assert full.tolist() == [oracles.box_muller(a, b) for a, b in zip(u1, u2)]
    radius = _bm_radius(u1)
    assert np.array_equal(_bm_angle(radius, u2), full)
    # the halves on gathered cells and on strided views give the same bits
    cells = rng.choice(u1.size, 37, replace=False)
    assert np.array_equal(_bm_angle(radius.take(cells), u2.take(cells)), full[cells])
    assert np.array_equal(_bm_angle(_bm_radius(u1[1::3]), u2[1::3]), full[1::3])
    assert radius[0] == 0.0 and radius[2] == radius.max() < 8.6


def _full_sample_argmax(batch, loc, scale):
    """Argmax of loc + scale * normal_block(C) on a clone of ``batch``,
    and the clone's counters afterwards."""
    clone = StreamBatch(batch.keys.copy())
    clone.counters[:] = batch.counters
    choice = np.argmax(loc + scale * clone.normal_block(loc.shape[1]), axis=1)
    return choice, clone.counters


def _posterior(rng, lanes, arms):
    """TS-Gauss posteriors (sums/(1+z), 1/sqrt(1+z)); some cells never pulled."""
    pulls = rng.integers(0, 400, size=(lanes, arms)) * (rng.random((lanes, arms)) < 0.8)
    sums = pulls * rng.normal(0.5, 0.3, size=(lanes, arms))
    return sums / (1.0 + pulls), 1.0 / np.sqrt(1.0 + pulls)


def _argmax_states(rng):
    """(loc, scale) pairs covering the shapes normal_argmax must get right."""
    yield np.zeros((1, 2)), np.ones((1, 2))                  # R=1, K=2, prior
    yield np.zeros((5, 100)), np.ones((5, 100))              # never-pulled rows
    for lanes, arms in ((1, 2), (3, 7), (6, 100)):
        yield _posterior(rng, lanes, arms)
    # scales from 1e-6 to 10 on loose and on near-tied means
    scale = 10.0 ** rng.uniform(-6, 1, size=(6, 50))
    yield rng.uniform(-1, 1, size=(6, 50)), scale
    yield 0.5 + 1e-7 * rng.standard_normal((6, 50)), scale
    # rows tied on loc and scale; at scales 0 and 1e-20 every sample ties, so
    # column 0 must win even in lanes where it is not sampled first
    for s in (0.0, 1e-20, 1e-6, 1.0, 10.0):
        yield np.full((4, 30), 0.25), np.full((4, 30), s)
    # one dominant cell per row, and a row of equal posteriors beside it
    loc, scale = _posterior(rng, 3, 40)
    loc[0, 17] = 50.0
    loc[1], scale[1] = loc[1, 0], scale[1, 0]
    yield loc, scale


def test_normal_argmax_equals_full_sample_argmax():
    rng = np.random.default_rng(8)
    for case, (loc, scale) in enumerate(_argmax_states(rng)):
        lanes = loc.shape[0]
        keys = np.array([derive_key(31, 100 * case + k) for k in range(lanes)],
                        dtype=np.uint64)
        batch = StreamBatch(keys)
        batch.counters[:] = rng.integers(0, 10 ** 6, size=lanes)
        for _ in range(20):  # consecutive calls continue each lane's stream
            want, counters = _full_sample_argmax(batch, loc, scale)
            got = batch.normal_argmax(loc, scale)
            assert np.array_equal(got, want), case
            assert np.array_equal(batch.counters, counters)


def test_gamma_block_matches_scalar_reference():
    # shape 1 rejects often, so the lanes run different numbers of trials
    batch, refs = _three_lanes()
    shape = np.array([[1.0, 2.5, 7.0, 1.0]] * 3)
    got = batch.gamma_block(*gamma_constants(shape))
    for lane, ref in enumerate(refs):
        assert got[lane].tolist() == oracles.gamma_row(ref, shape[lane]).tolist()
    assert batch.counters.tolist() == [ref.counter for ref in refs]


def test_scalar_normal_consumes_two_draws_and_matches_batch():
    # Box-Muller on the stream's first two scalar uniforms
    s = RngStream(derive_key(13, 0))
    u1, u2 = s.uniform(), s.uniform()
    z = float(np.sqrt(-2.0 * np.log1p(-u1))) * float(np.cos(2.0 * np.pi * u2))
    batch = StreamBatch(np.array([derive_key(13, 0)], dtype=np.uint64))
    assert z == batch.normal_block(1)[0, 0]
    assert int(batch.counters[0]) == 2


def test_bernoulli_consumes_one_draw():
    env = make_environment("bernoulli", [0.4, 0.6])
    batch = StreamBatch(np.array([derive_key(13, 1)], dtype=np.uint64))
    reward_noise(env, batch, 1)
    assert int(batch.counters[0]) == 1
    reward_noise(env, batch, 5)
    assert int(batch.counters[0]) == 6


def test_uniform_lanes_advances_only_selected():
    batch = StreamBatch.for_runs(3, range(5))
    batch.uniform_lanes(np.array([1, 3]))
    assert batch.counters.tolist() == [0, 1, 0, 1, 0]


def test_lane_sequence_unaffected_by_batch_mates():
    # Rejection sampling in one lane must not shift another lane's draws.
    keys = [derive_key(5, k) for k in range(20)]
    alone = StreamBatch(np.array([keys[7]], dtype=np.uint64))
    together = StreamBatch(np.array(keys, dtype=np.uint64))
    a = np.full((1, 6), 1.0)
    b = np.full((20, 6), 1.0)
    # shape-1 gammas reject most often, maximizing desynchronization pressure
    ga = alone.gamma_block(*gamma_constants(a))
    gb = together.gamma_block(*gamma_constants(b))
    assert np.array_equal(ga[0], gb[7])
    assert int(alone.counters[0]) == int(together.counters[7])


def test_uniform_range_and_mean():
    u = StreamBatch.for_runs(23, [0]).uniform_block(200_000)[0]
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_block_distribution():
    batch = StreamBatch.for_runs(29, range(50))
    z = batch.normal_block(400).ravel()
    assert sps.kstest(z, sps.norm.cdf).pvalue > 1e-4


def test_gamma_block_distribution_and_positivity():
    batch = StreamBatch.for_runs(31, range(100))
    shape = np.full((100, 40), 2.5)
    g = batch.gamma_block(*gamma_constants(shape)).ravel()
    assert (g > 0.0).all()
    assert sps.kstest(g, sps.gamma(2.5).cdf).pvalue > 1e-4


def test_gamma_block_rejects_shape_below_one():
    with pytest.raises(ValueError):
        gamma_constants(np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gamma_constants_rejects_non_finite_shapes(bad):
    # no trial ever accepts a nan or infinite shape, so gamma_block would
    # never return; the constants are refused before any draw
    shape = np.full((2, 3), 2.0)
    shape[1, 2] = bad
    with pytest.raises(ValueError):
        gamma_constants(shape)
    with pytest.raises(ValueError):
        gamma_constants(np.full((2, 3), bad))


def _shape_states(rng):
    """(R, C) shape arrays for gamma_block: TS-Beta's integer shapes up to
    expt1's reach, real shapes, and rows of shape 1, the shape rejected most."""
    yield np.ones((1, 2))
    yield np.ones((30, 40))
    for lanes, cols in ((1, 40), (7, 3), (50, 40), (100, 40)):
        yield rng.integers(1, 1205, size=(lanes, cols)).astype(np.float64)
        shape = 1.0 + 30.0 * rng.random((lanes, cols))
        yield np.where(rng.random((lanes, cols)) < 0.5, 1.0, shape)


def test_gamma_block_equals_row_trial_reference():
    # The retries draw only the pending cells; the values and every lane's
    # counter must equal whole-row trials, at random counters and over
    # consecutive calls.
    rng = np.random.default_rng(12)
    most_trials = 0
    for case, shape in enumerate(_shape_states(rng)):
        lanes, cols = shape.shape
        batch = StreamBatch.for_runs(case, range(lanes), DOMAIN_POLICY)
        batch.counters[:] = rng.integers(0, 10 ** 6, size=lanes)
        ref = StreamBatch(batch.keys.copy())
        ref.counters[:] = batch.counters
        for _ in range(4):
            start = batch.counters.copy()
            got = batch.gamma_block(*gamma_constants(shape))
            want = oracles.gamma_rows(ref, shape)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case
            assert np.array_equal(batch.counters, ref.counters), case
            most_trials = max(most_trials, int((batch.counters - start).max()) // (3 * cols))
    assert most_trials >= 3


def test_beta_block_distribution_and_support():
    batch = StreamBatch.for_runs(37, range(100))
    a = np.full((100, 30), 3.0)
    b = np.full((100, 30), 7.0)
    x = batch.beta_block(*gamma_constants(np.concatenate([a, b], axis=1))).ravel()
    assert (x > 0.0).all() and (x < 1.0).all()
    assert sps.kstest(x, sps.beta(3, 7).cdf).pvalue > 1e-4


def test_beta_flat_prior_is_uniform():
    batch = StreamBatch.for_runs(41, range(100))
    ones = np.ones((100, 20))
    x = batch.beta_block(*gamma_constants(np.concatenate([ones, ones], axis=1))).ravel()
    assert sps.kstest(x, sps.uniform.cdf).pvalue > 1e-4
