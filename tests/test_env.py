"""Environments, their arm checks, and reward sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eucbv.env import make_environment, reward_noise, sample_rewards_batch
from eucbv.rng import StreamBatch
from oracles import RngStream, derive_key


def _lane(seed, run=0):
    return StreamBatch.for_runs(seed, [run])


def _step(env, arms, streams):
    """One step's rewards for ``arms``, drawing that step's noise alone."""
    return sample_rewards_batch(env, arms, reward_noise(env, streams, 1)[:, 0])


def _draws(env, arm, streams, n):
    """``n`` successive rewards of ``arm`` on every lane; shape (n, R)."""
    arms = np.full(len(streams), arm, dtype=np.int64)
    return np.array([_step(env, arms, streams) for _ in range(n)])


class TestArmValidation:
    """Every per-arm check make_environment makes."""

    def test_bernoulli_variance_is_derived(self):
        env = make_environment("bernoulli", [0.1, 0.5, 0.07])
        assert env.variances[0] == 0.1 * 0.9
        # the same float ops as a scalar m*(1-m), arm by arm
        assert env.variances.tolist() == [m * (1.0 - m) for m in (0.1, 0.5, 0.07)]

    def test_bernoulli_mean_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_environment("bernoulli", [0.5, 1.2])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_environment("bernoulli", [-0.1, 0.5])
        assert make_environment("bernoulli", [0.0, 1.0]).n_arms == 2

    def test_bernoulli_inconsistent_variance_rejected(self):
        # a Bernoulli arm's variance is derived, so none may be given, not
        # even the consistent one
        with pytest.raises(ValueError, match="derive"):
            make_environment("bernoulli", [0.5, 0.5], [0.3, 0.3])
        with pytest.raises(ValueError, match="derive"):
            make_environment("bernoulli", [0.5, 0.5], [0.25, 0.25])

    def test_gaussian_negative_variance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            make_environment("gaussian", [0.5, 0.1], [0.25, -0.01])
        assert make_environment("gaussian", [0.5, 0.1], [0.0, 0.0]).n_arms == 2

    def test_unknown_kind_rejected(self):
        for kind in ("poisson", None, "Bernoulli"):
            with pytest.raises(ValueError, match="kind"):
                make_environment(kind, [1.0, 0.5], [1.0, 1.0])

    @pytest.mark.parametrize("mean,variance", [
        (math.nan, 0.25), (0.1, math.inf), (-math.inf, 0.25), (0.1, math.nan),
    ])
    def test_non_finite_rejected(self, mean, variance):
        with pytest.raises(ValueError, match="finite"):
            make_environment("gaussian", [mean, 0.2], [variance, 0.25])
        if not math.isfinite(mean):
            with pytest.raises(ValueError):
                make_environment("bernoulli", [mean, 0.2])


class TestMakeEnvironment:
    def test_expt1_gaps(self):
        env = make_environment("bernoulli", [0.07] * 19 + [0.1])
        assert env.n_arms == 20
        assert env.optimal_index == 19
        assert np.allclose(env.gaps[:19], 0.03)
        assert env.gaps[19] == 0.0

    def test_gaps_are_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            means = rng.normal(size=int(rng.integers(2, 30)))
            env = make_environment("gaussian", means, np.ones_like(means))
            assert (env.gaps >= 0.0).all() and env.gaps[env.optimal_index] == 0.0

    def test_tie_broken_to_lowest_index(self):
        env = make_environment("bernoulli", [0.5, 0.5])
        assert env.optimal_index == 0
        assert env.gaps.tolist() == [0.0, 0.0]

    def test_expt2_gap_range(self):
        means = [0.07] * 66 + [0.01] * 33 + [0.09]
        variances = [0.01] * 66 + [0.25] * 33 + [0.25]
        env = make_environment("gaussian", means, variances)
        positive = env.gaps[env.gaps > 0]
        assert np.isclose(positive.max(), 0.08)
        assert np.isclose(positive.min(), 0.02)
        assert env.optimal_index == 99

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_environment("bernoulli", [0.5])
        with pytest.raises(ValueError, match="at least 2"):
            make_environment("gaussian", [], [])

    def test_gaussian_requires_variance(self):
        with pytest.raises(ValueError, match="variances"):
            make_environment("gaussian", [0.5, 0.6])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            make_environment("gaussian", [0.5, 0.6], [0.25])
        with pytest.raises(ValueError, match="differ in length"):
            make_environment("gaussian", [0.5, 0.6], [0.25] * 3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_environment("gaussian", [math.nan, 0.1], [0.25, 0.25])
        with pytest.raises(ValueError):
            make_environment("gaussian", [0.5, 0.1], [0.25, math.inf])

    def test_overflowing_gap_rejected(self):
        # each mean is finite, but 1e308 - (-1e308) is not
        with pytest.raises(ValueError, match="overflows"):
            make_environment("gaussian", [1e308, -1e308], [1.0, 1.0])
        assert make_environment("gaussian", [1e307, 0.0], [1.0, 1.0]).gaps[1] == 1e307

    def test_equality_is_by_value(self):
        env = make_environment("gaussian", [0.5, 0.1], [0.25, 0.04])
        assert env == make_environment("gaussian", (0.5, 0.1), np.array([0.25, 0.04]))
        assert env != make_environment("gaussian", [0.5, 0.1], [0.25, 0.05])
        assert make_environment("bernoulli", [0.5, 0.1]) != \
            make_environment("gaussian", [0.5, 0.1], [0.25, 0.09])

    def test_kind_is_recorded(self):
        assert make_environment("bernoulli", [0.2] * 2).kind == "bernoulli"
        assert make_environment("gaussian", [0.2] * 2, [1.0] * 2).kind == "gaussian"

    def test_inputs_are_copied(self):
        means = np.array([0.2, 0.8])
        env = make_environment("bernoulli", means)
        means[0] = 0.9
        assert env.means.tolist() == [0.2, 0.8] and env.optimal_index == 1


class TestSampleReward:
    def test_degenerate_bernoulli(self):
        env = make_environment("bernoulli", [1.0, 0.0])
        lane = _lane(1)
        assert (_draws(env, 0, lane, 50) == 1.0).all()
        assert (_draws(env, 1, lane, 50) == 0.0).all()

    def test_bernoulli_law_of_large_numbers(self):
        # Oracle: direct Monte-Carlo at 1e6 draws concentrates within 1e-3.
        n = 10 ** 6
        mean = np.mean(_lane(2024).uniform_block(n)[0] < 0.1)
        assert abs(mean - 0.1) < 1e-3
        # and through the batched sampler on a smaller sample
        env = make_environment("bernoulli", [0.1, 0.5])
        small = _draws(env, 0, _lane(2024, 1), 20_000).mean()
        assert abs(small - 0.1) < 0.01

    def test_bernoulli_empirical_mean_concentration(self):
        # |mean_hat - mean| <= 4*sqrt(p(1-p)/n) in >= 99% of trials at n=1e5.
        p, n, trials = 0.3, 10 ** 5, 50
        ok = 0
        for k in range(trials):
            u = _lane(77, k).uniform_block(n)[0]
            ok += abs((u < p).mean() - p) <= 4.0 * np.sqrt(p * (1 - p) / n)
        assert ok >= int(0.99 * trials)

    def test_gaussian_moments(self):
        env = make_environment("gaussian", [0.5, 0.0], [0.04, 1.0])
        xs = _draws(env, 0, StreamBatch.for_runs(3, range(1000)), 100).ravel()
        assert abs(xs.mean() - 0.5) < 0.01
        assert abs(xs.var() - 0.04) / 0.04 < 0.05  # 5% relative error

    def test_gaussian_not_clipped(self):
        env = make_environment("gaussian", [0.5, 0.0], [1.0, 1.0])
        xs = _draws(env, 0, _lane(4), 2000)
        assert xs.min() < 0.0 and xs.max() > 1.0

    def test_fixed_draw_counts(self):
        lane = _lane(5)
        _step(make_environment("bernoulli", [0.5] * 2), np.array([0]), lane)
        assert lane.counters.tolist() == [1]
        _step(make_environment("gaussian", [0.0] * 2, [1.0] * 2), np.array([0]), lane)
        assert lane.counters.tolist() == [3]  # exactly two more draws
        reward_noise(make_environment("gaussian", [0.0] * 2, [1.0] * 2), lane, 4)
        assert lane.counters.tolist() == [11]  # two per Gaussian step


class TestDeriveRunStream:
    def test_replay_is_bit_identical(self):
        a = _lane(42, 7).uniform_block(1000)
        b = _lane(42, 7).uniform_block(1000)
        assert np.array_equal(a, b)

    def test_distinct_runs_distinct_samples(self):
        a = _lane(42, 0).uniform_block(100)
        b = _lane(42, 1).uniform_block(100)
        assert not np.array_equal(a, b)

    def test_independent_of_replication_count(self):
        # Nothing but (seed, k) enters the derivation.
        assert _lane(42, 3).keys[0] == StreamBatch.for_runs(42, range(10)).keys[3]


class TestBatchSampling:
    """Each lane's reward is a pure function of that lane's own stream."""

    def test_batch_bernoulli_matches_scalar(self):
        env = make_environment("bernoulli", [0.3, 0.7])
        arms = np.array([0, 1, 1, 0])
        batch = StreamBatch(np.array([derive_key(6, k) for k in range(4)], dtype=np.uint64))
        got = _step(env, arms, batch)
        want = [float(RngStream(derive_key(6, k)).uniform() < env.means[a])
                for k, a in enumerate(arms)]
        assert got.tolist() == want

    def test_batch_gaussian_matches_scalar(self):
        env = make_environment("gaussian", [0.0, 1.0], [1.0, 0.25])
        arms = np.array([1, 0, 1])
        batch = StreamBatch(np.array([derive_key(8, k) for k in range(3)], dtype=np.uint64))
        got = _step(env, arms, batch)
        want = []
        for k, a in enumerate(arms):
            u1, u2 = RngStream(derive_key(8, k)).uniforms(2)
            z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
            want.append(env.means[a] + np.sqrt(env.variances[a]) * z)
        assert np.array_equal(got, np.array(want))

    def test_mixed_kind_environment(self):
        # one kind per environment: a kind per arm is not a kind
        with pytest.raises(ValueError, match="kind"):
            make_environment(["bernoulli", "gaussian"], [0.5, 0.5], [0.25, 0.01])
