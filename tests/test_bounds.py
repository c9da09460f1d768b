"""Bound calculators, lemma verifiers, and the concentration check."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from eucbv.bounds import (
    check_bernstein_tail,
    elimination_round,
    eucbv_dominant_term,
    eucbv_gap_dependent_bound,
    gap_independent_bound,
    lemma1_ratio,
    table1_bounds,
    verify_lemma1,
    verify_lemma2,
    verify_lemma6,
)
from eucbv.env import GAUSSIAN, make_environment
from eucbv.rng import StreamBatch


def _env(gaps, variances):
    """A Gaussian environment with exactly these gaps: means = -gaps."""
    return make_environment(GAUSSIAN, [-g for g in gaps], variances)


def _uniform_env(n_arms=20, gap=0.03, variance=0.0651):
    return _env((0.0,) + (gap,) * (n_arms - 1), (variance,) * n_arms)


class TestGapDependentBound:
    def test_zero_variance_collapse(self):
        # All gaps above b, zero variance: sum of (C0*K^4/T^(1/4) + gap).
        env = _uniform_env(variance=0.0, gap=0.5)
        k4 = 20 ** 4 / 60000 ** 0.25
        expected = 19 * (k4 + 0.5)
        assert eucbv_gap_dependent_bound(env, 60000) == pytest.approx(expected)

    def test_threshold_below_validity_rejected(self):
        floor = math.sqrt(math.e / 60000)
        with pytest.raises(ValueError, match="validity range"):
            eucbv_gap_dependent_bound(_uniform_env(), 60000, b=0.5 * floor)
        assert eucbv_gap_dependent_bound(_uniform_env(), 60000, b=floor) == (
            eucbv_gap_dependent_bound(_uniform_env(), 60000))

    def test_dominant_term_expt1(self):
        got = eucbv_dominant_term(0.03, 0.0651, 20, 60000)
        assert got == pytest.approx(oracles.eucbv_dominant_term(0.03, 0.0651, 20, 60000),
                                    rel=1e-12)
        assert got == pytest.approx(689.714, abs=0.1)

    def test_small_gap_branch_contributes_linear_term(self):
        horizon = 60000
        b = 0.01
        gaps = (0.0, 0.5, 0.005)
        with_small = eucbv_gap_dependent_bound(_env(gaps, (0.1,) * 3), horizon, b=b)
        assert with_small >= 0.005 * horizon

    def test_log_clamp(self):
        # T*gap^2/K <= 1 zeroes the dominant term.
        assert eucbv_dominant_term(0.001, 0.25, 20, 60000) == 0.0


class TestGapIndependentBound:
    def test_expt1_value(self):
        got = gap_independent_bound(20, 60000, c3=0.0)
        assert got == pytest.approx(oracles.gap_independent_bound(20, 60000, 0.0), rel=1e-12)
        assert got == pytest.approx(87635.6, abs=0.1)

    def test_monotone_in_horizon_and_arms(self):
        # The sqrt(KT) term grows in T; the constant-weighted K^5/T^(1/4)
        # term shrinks, so T-monotonicity holds once sqrt(KT) dominates
        # (T >~ K^6) and unconditionally at c3=0.
        values_t = [gap_independent_bound(20, t, c3=0.0)
                    for t in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert values_t[0] < values_t[1] < values_t[2]
        big = [gap_independent_bound(20, t) for t in (10 ** 8, 10 ** 9, 10 ** 10)]
        assert big[0] < big[1] < big[2]
        values_k = [gap_independent_bound(k, 60000) for k in (2, 10, 50)]
        assert values_k[0] < values_k[1] < values_k[2]

    def test_sqrt_term_dominates_for_large_horizon(self):
        t = 10 ** 12
        assert gap_independent_bound(20, t, c3=1.0) == pytest.approx(
            80.0 * math.sqrt(20 * t), rel=1e-2)


class TestDominantTermMonotonicity:
    def test_decreasing_in_gap_above_threshold(self):
        # d/dgap[ln(T*gap^2/K)/gap] < 0 iff ln(T*gap^2/K) > 2, i.e. for
        # gap > e * sqrt(K/T) (checked numerically, not symbolically).
        n_arms, horizon = 20, 60000
        lo = math.e * math.sqrt(n_arms / horizon) * 1.001
        gaps = np.linspace(lo, 1.0, 200)
        vals = [eucbv_dominant_term(g, 0.25, n_arms, horizon) for g in gaps]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestTable1:
    def test_six_rows_with_distinct_forms(self):
        rows = table1_bounds(_uniform_env(), 60000)
        assert [name for name, _, _ in rows] == [
            "eucbv", "moss", "ocucb", "ucb-improved", "ucb1", "ucbv"]
        dep = dict((name, d) for name, d, _ in rows)
        indep = dict((name, i) for name, _, i in rows)
        # gap-independent forms collapse into three families
        assert indep["eucbv"] == indep["moss"] == indep["ocucb"] == pytest.approx(
            math.sqrt(20 * 60000))
        assert indep["ucb1"] == indep["ucbv"] == pytest.approx(
            math.sqrt(20 * 60000 * math.log(60000)))
        assert indep["ucb-improved"] == pytest.approx(
            math.sqrt(20 * 60000 * math.log(20)))
        # variance scaling separates eucbv/ucbv from the mean-only bounds
        assert dep["eucbv"] == pytest.approx(
            20 * 0.0651 * math.log(60000 * 0.03 ** 2 / 20) / 0.03)
        # moss/eucbv differ exactly by the K/sigma_max^2 factor
        assert dep["moss"] == pytest.approx(dep["eucbv"] * 20 / 0.0651)
        # uniform gaps: H_i = 19/gap^2 for each of the 19 suboptimal arms,
        # and the optimal arm adds nothing
        assert dep["ocucb"] == pytest.approx(
            19 * math.log(60000 / (19 / 0.03 ** 2)) / 0.03, rel=1e-12)

    def test_variance_forms_read_the_largest_variance(self):
        env = _env((0.0,) + (0.03,) * 19, (0.0651,) + (0.01,) * 19)
        dep = dict((name, d) for name, d, _ in table1_bounds(env, 60000))
        assert dep["eucbv"] == pytest.approx(
            20 * 0.0651 * math.log(60000 * 0.03 ** 2 / 20) / 0.03)
        assert dep["ucbv"] == pytest.approx(20 * 0.0651 * math.log(60000) / 0.03)


class TestLemma1:
    def test_ratio_example(self):
        got = lemma1_ratio(10, 252, 3)
        assert got == pytest.approx(oracles.lemma1_ratio(10, 252, 3), rel=1e-12)
        assert got == pytest.approx(0.45307, abs=1e-4)

    def test_zero_round_ratio(self):
        assert lemma1_ratio(10, 252, 0) == 0.0

    def test_small_grid_no_violations(self):
        report = verify_lemma1(ks=(2, 8, 32), t_points=8)
        assert report.ok
        assert report.points > 0
        assert report.worst_margin <= 0.0


class TestLemma2:
    def test_elimination_round_definition(self):
        for gap in (0.01, 0.05, 0.3, 1.0):
            m = elimination_round(gap)
            assert math.sqrt(4.0 * 2.0 ** -m) < gap / 4.0
            assert m == 0 or not math.sqrt(4.0 * 2.0 ** -(m - 1)) < gap / 4.0

    def test_radius_below_quarter_gap_at_k10_t1e6(self):
        gap = 0.5
        m = elimination_round(gap)
        psi = 10 ** 6 / 100
        eps = 2.0 ** -m
        quota = math.log(psi * 10 ** 6 * eps * eps) / (2 * eps)
        radius = math.sqrt(0.5 * 3.0 * math.log(psi * 10 ** 6 * eps) / (4 * quota))
        assert radius < gap / 4.0

    def test_small_grid_no_violations(self):
        report = verify_lemma2(ks=(2, 8, 32), t_points=8)
        assert report.ok
        assert report.points > 0


class TestLemma6:
    def test_boundary_equality(self):
        report = verify_lemma6(c_pairs=((1, 20),), sigmas=(0.25,))
        assert report.ok
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_slack_pair(self):
        report = verify_lemma6(c_pairs=((1, 40),), sigmas=(0.25,))
        assert report.ok  # 5 <= 10

    def test_sub_quarter_failures_recorded_not_raised(self):
        report = verify_lemma6(c_pairs=((1, 20),), sigmas=(0.1,))
        assert not report.ok
        (c1, c2, s, lhs, rhs), = report.violations
        assert (lhs, rhs) == (pytest.approx(4.4), pytest.approx(2.0))

    def test_premise_violation_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma6(c_pairs=((1, 10),))


class TestBernsteinTail:
    def test_degenerate_arm_never_deviates(self):
        report = check_bernstein_tail(
            1.0, pulls=9, epsilon_m=1.0, psi=150.0,
            horizon=60000, rho=0.5, samples=2000, rng=StreamBatch.for_runs(3, [0]))
        assert report.frequency == 0.0
        assert report.ok

    def test_expt1_round_zero_bound_value(self):
        report = check_bernstein_tail(
            0.1, pulls=9, epsilon_m=1.0, psi=150.0,
            horizon=60000, rho=0.5, samples=5000, rng=StreamBatch.for_runs(3, [1]))
        assert report.bound == pytest.approx(
            oracles.bernstein_bound(150, 60000, 1.0, 0.5), rel=1e-12)
        assert report.bound == pytest.approx(1.21716e-5, rel=1e-4)
        assert report.ok

    def test_doubling_pulls_never_hurts(self):
        kwargs = dict(epsilon_m=1.0, psi=150.0, horizon=60000, rho=0.5, samples=20000)
        f1 = check_bernstein_tail(0.1, pulls=9, rng=StreamBatch.for_runs(4, [0]), **kwargs)
        f2 = check_bernstein_tail(0.1, pulls=18, rng=StreamBatch.for_runs(4, [1]), **kwargs)
        noise = 3.0 / math.sqrt(20000)
        assert f2.frequency <= f1.frequency + noise

    def test_lower_tail_side(self):
        report = check_bernstein_tail(
            0.9, pulls=9, epsilon_m=1.0, psi=150.0,
            horizon=60000, rho=0.5, samples=2000,
            rng=StreamBatch.for_runs(5, [0]), side="lower")
        assert report.ok

    def test_unbounded_mean_rejected(self):
        # the check models a bounded (Bernoulli) arm; no such arm has these means
        for mean in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError):
                check_bernstein_tail(
                    mean, pulls=4, epsilon_m=1.0, psi=2.0,
                    horizon=100, rho=0.5, samples=10, rng=StreamBatch.for_runs(6, [0]))
