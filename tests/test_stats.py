"""Sufficient statistics and the biased variance estimator."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from eucbv.stats import PullStats


def _record_all(rewards):
    """A one-lane, one-arm PullStats fed ``rewards`` in order."""
    stats = PullStats(1, 1)
    arm = np.zeros(1, dtype=np.int64)
    for r in rewards:
        stats.record(arm, np.array([r], dtype=np.float64))
    return stats


def _cell(stats):
    return float(stats.counts[0, 0]), float(stats.sums[0, 0]), float(stats.sq_sums[0, 0])


def _mean(rewards):
    return float(_record_all(rewards).means()[0, 0])


def _variance(rewards):
    return float(_record_all(rewards).variances()[0, 0])


class TestRecord:
    def test_single_one(self):
        assert _cell(_record_all([1.0])) == (1, 1.0, 1.0)

    def test_three_binary(self):
        assert _cell(_record_all([0.0, 1.0, 1.0])) == (3, 2.0, 2.0)

    def test_constant_half_has_zero_variance(self):
        stats = _record_all([0.5] * 10_000)
        assert stats.means()[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert stats.variances()[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestMeanEstimate:
    def test_quarter(self):
        assert _mean([1.0, 0.0, 0.0, 0.0]) == 0.25

    def test_single_pull(self):
        assert _mean([0.7]) == 0.7

    def test_two_thirds(self):
        assert _mean([0.0, 1.0, 1.0]) == pytest.approx(2 / 3)


class TestVarianceEstimate:
    def test_two_point_symmetric(self):
        assert _variance([0.0, 1.0]) == pytest.approx(0.25)

    def test_constant(self):
        assert _variance([0.5] * 3) == pytest.approx(0.0, abs=1e-15)

    def test_three_of_five(self):
        # oracle: (1/5) * sum((x - 0.6)^2) = (2*0.36 + 3*0.16)/5 = 0.24
        assert oracles.two_pass_variance([0, 0, 1, 1, 1]) == pytest.approx(0.24)
        assert _variance([0.0, 0.0, 1.0, 1.0, 1.0]) == pytest.approx(0.24, abs=1e-12)

    def test_matches_two_pass_oracle_on_long_sequence(self):
        rng = np.random.default_rng(11)
        rewards = rng.random(10_000)
        assert _variance(rewards.tolist()) == pytest.approx(
            oracles.two_pass_variance(rewards.tolist()), abs=1e-10
        )

    def test_popoviciu_bound_on_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rewards = rng.random(rng.integers(1, 200))
            assert _variance(rewards.tolist()) <= 0.25 + 1e-12


class TestPullStats:
    def test_matches_scalar_accumulation(self):
        # every (lane, arm) cell equals a one-cell PullStats fed that cell's
        # rewards, and the two-pass oracle on them
        ps = PullStats(2, 3)
        seen = [[[] for _ in range(3)] for _ in range(2)]
        rng = np.random.default_rng(13)
        for _ in range(200):
            arms = rng.integers(0, 3, size=2)
            rewards = rng.random(2)
            ps.record(arms, rewards)
            for lane in range(2):
                seen[lane][arms[lane]].append(float(rewards[lane]))
        means = ps.means()
        variances = ps.variances()
        for lane in range(2):
            for arm in range(3):
                rewards = seen[lane][arm]
                alone = _record_all(rewards)
                assert (ps.counts[lane, arm], ps.sums[lane, arm],
                        ps.sq_sums[lane, arm]) == _cell(alone)
                assert means[lane, arm] == pytest.approx(sum(rewards) / len(rewards))
                assert variances[lane, arm] == pytest.approx(
                    oracles.two_pass_variance(rewards), abs=1e-12)

    def test_record_equals_2d_indexed_adds(self):
        ps = PullStats(5, 4)
        counts, sums, sq_sums = (np.zeros((5, 4)) for _ in range(3))
        rows = np.arange(5)
        rng = np.random.default_rng(29)
        for _ in range(300):
            arms = rng.integers(0, 4, size=5)
            rewards = rng.normal(0.5, 1.0, size=5)
            ps.record(arms, rewards)
            counts[rows, arms] += 1.0
            sums[rows, arms] += rewards
            sq_sums[rows, arms] += rewards * rewards
        assert np.array_equal(ps.counts, counts)
        assert np.array_equal(ps.sums, sums)
        assert np.array_equal(ps.sq_sums, sq_sums)

    def test_record_returns_flat_cells(self):
        # lane r's written cell is r*K + arms[r], the flat (C-order) index
        ps = PullStats(3, 4)
        arms = np.array([2, 0, 3])
        cells = ps.record(arms, np.array([0.5, 1.0, 0.25]))
        assert cells.tolist() == [2, 4, 11]
        assert ps.counts.reshape(-1)[cells].tolist() == [1.0, 1.0, 1.0]
        assert ps.counts.sum() == 3.0
