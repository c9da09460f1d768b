"""Operation-level tests for EUCBV's round policy, selection, elimination and
round reset, on one-lane policies with injected statistics."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from eucbv.policies import EucbvPolicy, confidence_radius

LANE = np.zeros(1, dtype=np.int64)  # a one-lane policy's row, and its arm-0 cell


def _policy(n_arms, horizon, **kw):
    return EucbvPolicy(1, n_arms, horizon, **kw)


def _set_arm(policy, arm, pulls, mean, v_hat, lane=0):
    """Inject sufficient statistics realizing (pulls, mean, v_hat), and
    refresh the cell's cached bounds as an update pulling it would."""
    policy.stats.counts[lane, arm] = pulls
    policy.stats.sums[lane, arm] = pulls * mean
    policy.stats.sq_sums[lane, arm] = pulls * (v_hat + mean * mean)
    policy._refresh(np.array([lane * policy.n_arms + arm]), policy._log_conf[policy.m[lane]])


def _deactivate(policy, arms, lane=0):
    """Clear ``arms`` from the lane's active set as an elimination would:
    the mask together with the cells' cached bounds, which read -inf."""
    cells = lane * policy.n_arms + np.asarray(arms)
    policy.active[lane, arms] = False
    np.put(policy._ucb, cells, -np.inf)
    np.put(policy._lcb, cells, -np.inf)


def _set_all(policy, pulls=9, mean=0.5, v_hat=0.1):
    """The same statistics in every cell, so every cached bound is finite."""
    for lane in range(policy.n_runs):
        for arm in range(policy.n_arms):
            _set_arm(policy, arm, pulls, mean, v_hat, lane)


def _select(policy):
    """Lane 0's choice at the first step after the initialization pulls."""
    return int(policy.select(policy.n_arms + 1)[0])


class TestInit:
    def test_expt1_scale(self):
        policy = _policy(20, 60000)
        assert policy.psi == pytest.approx(150.0)
        assert policy._quotas[0] == 9 == oracles.round_quota(150, 60000, 1.0)
        assert policy.deadline[0] == 180
        assert policy.max_rounds == 7 == oracles.round_cap(60000)
        assert policy.m[0] == 0
        assert policy.active.all()
        # n_m for every round m = 0..M+1 a lane can reach, at eps_m = 2**-m
        assert policy._quotas.tolist() == [
            oracles.round_quota(150, 60000, 2.0 ** -m) for m in range(7 + 2)]

    def test_small_instance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            policy = _policy(2, 16, psi=4.0)
            on_clamp = _policy(5, 10)  # psi = T/K^2 = 0.4
        assert policy._quotas[0] == 3 == oracles.round_quota(4, 16, 1.0)
        assert policy.deadline[0] == 6
        # psi*T*eps_1^2 = 0.4*10/4 is exactly 1, so its log clamps: n_1 = 0
        assert on_clamp._quotas.tolist() == [1, 0] == [
            oracles.round_quota(Fraction(10, 25), 10, 2.0 ** -m) for m in range(2)]

    def test_epsilon_starts_at_one(self):
        policy = _policy(5, 1000)  # psi*T = 40 * 1000 at eps_0 = 1
        assert policy.m[0] == 0
        assert policy._quotas[0] == oracles.round_quota(40, 1000, 1.0)
        assert policy._log_conf[0] == pytest.approx(math.log(40 * 1000), rel=1e-15)

    def test_horizon_too_small_rejected(self):
        with pytest.raises(ValueError):
            _policy(20, 20)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            _policy(5, 1000, rho=0.0)
        with pytest.raises(ValueError):
            _policy(5, 1000, psi=-1.0)
        with pytest.raises(ValueError):
            _policy(5, 1000, radius_eps_power=3)

    def test_warns_below_guarantee_regime(self):
        with pytest.warns(UserWarning):
            _policy(10, 200)  # 200 < 10^2.4


def _radius(policy, v_hat, pulls):
    """Confidence radius of one arm under lane 0's current round."""
    log_conf = policy._log_conf[policy.m[0]]
    return float(confidence_radius(v_hat, pulls, log_conf, policy.rho))


class TestConfidence:
    def test_round_zero_example(self):
        # z=9, v=0.09, psi*T=9e6, eps=1, rho=0.5 (eps power irrelevant at eps=1)
        policy = _policy(20, 60000)
        expected = oracles.confidence_radius(0.09, 9, 150, 60000, 1.0, 0.5)
        assert expected == pytest.approx(0.6817727752865445, abs=1e-12)
        assert _radius(policy, 0.09, 9) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_pulls_and_increasing_in_variance(self):
        policy = _policy(20, 60000)
        radii = [_radius(policy, 0.1, z) for z in (1, 2, 5, 10, 100, 10_000)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        low = _radius(policy, 0.0, 10)
        high = _radius(policy, 0.2, 10)
        assert high > low

    def test_clamped_log_gives_zero_radius(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            policy = _policy(2, 10, psi=0.05)  # psi*T = 0.5 <= 1
        assert _radius(policy, 0.01 / 3, 3) == 0.0


class TestSelect:
    def test_identical_stats_tie_breaks_low(self):
        policy = _policy(2, 100)
        for arm in range(2):
            _set_arm(policy, arm, 5, 0.4, 0.1)
        assert _select(policy) == 0

    def test_singleton_commits(self):
        policy = _policy(8, 1000)
        for arm in range(8):
            _set_arm(policy, arm, 1, 0.5, 0.0)
        _deactivate(policy, [0, 1, 2, 3, 4, 6, 7])
        assert _select(policy) == 5

    def test_wide_interval_beats_higher_mean(self):
        # arm 0: mean .5, v .25, z=10; arm 1: mean .6, v 0, z=100; psi*T=1e4
        policy = _policy(2, 100, psi=100.0)
        _set_arm(policy, 0, 10, 0.5, 0.25)
        _set_arm(policy, 1, 100, 0.6, 0.0)
        idx_a = 0.5 + oracles.confidence_radius(0.25, 10, 100, 100, 1.0, 0.5)
        idx_b = 0.6 + oracles.confidence_radius(0.0, 100, 100, 100, 1.0, 0.5)
        assert idx_a == pytest.approx(1.0089605318311334, abs=1e-12)
        assert idx_b == pytest.approx(0.7517427129385146, abs=1e-12)
        assert _select(policy) == 0

    def test_inactive_arms_ignored(self):
        policy = _policy(3, 1000)
        _set_arm(policy, 0, 50, 0.9, 0.0)
        _set_arm(policy, 1, 50, 0.5, 0.0)
        _set_arm(policy, 2, 50, 0.4, 0.0)
        _deactivate(policy, [0])
        assert _select(policy) == 1


class TestEliminate:
    def test_singleton_unchanged(self):
        policy = _policy(2, 100)
        _set_arm(policy, 0, 5, 0.9, 0.0)
        _set_arm(policy, 1, 5, 0.1, 0.0)
        _deactivate(policy, [1])
        policy._eliminate()
        assert policy.active[0].tolist() == [True, False]

    def test_identical_arms_survive(self):
        policy = _policy(2, 100)
        for arm in range(2):
            _set_arm(policy, arm, 5, 0.4, 0.1)
        policy._eliminate()
        assert policy.active.all()

    def test_separated_intervals_eliminate(self):
        # radius = sqrt(log(psi*T)/(4 z)) for v=0, rho=1/2; pick psi*T = e^0.04,
        # z = 4 so both radii are 0.05: [0.85, 0.95] vs [0.05, 0.15].
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            policy = _policy(2, 3, psi=math.exp(0.04) / 3.0)
        _set_arm(policy, 0, 4, 0.9, 0.0)
        _set_arm(policy, 1, 4, 0.1, 0.0)
        policy._eliminate()
        assert policy.active[0].tolist() == [True, False]
        # the fallen arm's bounds are masked, the survivor's kept
        assert policy._ucb[0, 0] == pytest.approx(0.95) and policy._ucb[0, 1] == -np.inf
        assert policy._lcb[0, 0] == pytest.approx(0.85) and policy._lcb[0, 1] == -np.inf

    def test_best_lcb_arm_never_removed(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            policy = _policy(4, 5000)
            for arm in range(4):
                _set_arm(policy, arm, int(rng.integers(1, 50)),
                         float(rng.random()), float(rng.random() * 0.25))
            policy._eliminate()
            assert policy.active[0].any()


class TestAdvanceRound:
    def test_first_reset_halves_epsilon(self):
        policy = _policy(20, 60000)
        _set_all(policy)
        policy._advance_round(180, LANE)
        assert policy.m[0] == 1
        assert policy._quotas[1] == 15 == oracles.round_quota(150, 60000, 0.5)
        assert policy.deadline[0] == 180 + 20 * 15

    def test_before_deadline_no_change(self):
        policy = _policy(20, 60000)
        _set_all(policy)
        policy._after_update(179, LANE, None)
        assert policy.m[0] == 0 and policy.deadline[0] == 180

    def test_no_advancement_past_round_cap(self):
        policy = _policy(20, 60000)
        policy.m[0] = policy.max_rounds + 1
        policy.deadline[0] = 0
        _set_all(policy)
        policy._after_update(10 ** 6, LANE, None)
        assert policy.m[0] == policy.max_rounds + 1
        assert policy.deadline[0] == 0

    def test_deadline_uses_current_timestep(self):
        policy = _policy(20, 60000)
        _set_all(policy)
        policy._advance_round(205, LANE)  # late arrival past N_0 = 180
        assert policy.deadline[0] == 205 + 20 * 15

    def test_radius_log_tracks_power(self):
        s1 = _policy(20, 60000, radius_eps_power=1)
        s2 = _policy(20, 60000, radius_eps_power=2)
        for s in (s1, s2):
            _set_all(s)
            s._advance_round(180, LANE)
            # the reset refreshed the lane's cached bounds under the new log
            radius = confidence_radius(0.1, 9.0, s._log_conf[1], s.rho)
            assert s._ucb[0].tolist() == [0.5 + radius] * 20
            assert s._lcb[0].tolist() == [0.5 - radius] * 20
        assert s1._log_conf[s1.m[0]] == pytest.approx(math.log(150 * 60000 * 0.5))
        assert s2._log_conf[s2.m[0]] == pytest.approx(math.log(150 * 60000 * 0.25))
        for power, s in ((1, s1), (2, s2)):  # every round m = 0..M+1
            assert s._log_conf.tolist() == pytest.approx(
                [float(oracles.clamped_log(150 * 60000 * 2.0 ** -(power * m)))
                 for m in range(s.max_rounds + 2)], rel=1e-15)

    def test_committed_lane_skips_round_reset(self):
        # Lane 0 is down to one arm, lane 1 is not; both are past N_0 = 180.
        policy = EucbvPolicy(2, 20, 60000)
        for lane in range(2):
            for arm in range(20):
                _set_arm(policy, arm, 9, 0.5, 0.1, lane)
        _deactivate(policy, list(range(1, 20)))
        policy._after_update(180, np.array([0, 20]), None)  # both lanes' arm 0
        assert policy.m.tolist() == [0, 1]
        assert policy.deadline.tolist() == [180, 180 + 20 * 15]
        assert policy.survivors().tolist() == [0, -1]

    def test_lane_committing_at_its_deadline_still_resets(self):
        # Both lanes are past N_0 = 180 and live before the step; lane 0's
        # arm 1 falls below arm 0 and is eliminated in this very step.
        policy = EucbvPolicy(2, 20, 60000)
        for lane in range(2):
            for arm in range(20):
                _set_arm(policy, arm, 9, 0.5, 0.1, lane)
        for arm in range(1, 20):
            _set_arm(policy, arm, 400, 0.0, 0.0, lane=0)
        _set_arm(policy, 0, 400, 1.0, 0.0, lane=0)
        policy._after_update(180, np.array([0, 20]), None)  # both lanes' arm 0
        assert policy.survivors().tolist() == [0, -1]
        assert policy.m.tolist() == [1, 1]
        assert policy.deadline.tolist() == [180 + 1 * 15, 180 + 20 * 15]


class TestStep:
    def _drive(self, n_arms, horizon, tape, **kw):
        policy = EucbvPolicy(1, n_arms, horizon, **kw)
        cursor = [0] * n_arms
        pulled = []
        for t in range(1, horizon + 1):
            arms = policy.select(t)
            arm = int(arms[0])
            r = tape[arm][cursor[arm] % len(tape[arm])]
            cursor[arm] += 1
            policy.update(t, arms, np.array([r]))
            if t > n_arms:
                pulled.append(arm)
        return policy, pulled

    def test_pull_conservation(self):
        policy, _ = self._drive(3, 200, {0: [0.9], 1: [0.5], 2: [0.1]})
        assert policy.pull_counts().sum() == 200

    def test_deterministic_tape_keeps_best_arm(self):
        policy, pulled = self._drive(2, 64, {0: [0.9], 1: [0.1]}, psi=16.0)
        assert policy.active[0].tolist() == [True, False]
        # once committed, every remaining pull hits the survivor
        last_elim = max(i for i, a in enumerate(pulled) if a == 1)
        assert all(a == 0 for a in pulled[last_elim + 1:])


class TestPolicyInvariants:
    def test_round_count_and_epsilon_relation(self):
        policy = EucbvPolicy(1, 4, 400)
        rng = np.random.default_rng(5)
        prev_m = 0
        for t in range(1, 401):
            arms = policy.select(t)
            policy.update(t, arms, rng.random(1))
            m = int(policy.m[0])
            if m != prev_m:  # a reset moves to eps_m = 2**-m: N_m = t + |B| n_m
                assert m == prev_m + 1
                assert policy.deadline[0] == t + policy.active[0].sum() * \
                    oracles.round_quota(policy.psi, 400, 2.0 ** -m)
                prev_m = m
            assert m <= policy.max_rounds + 1
            assert policy.active[0].any()
        assert prev_m > 0, "the run should reset at least one round"

    def test_eliminated_arms_stay_frozen(self):
        policy = EucbvPolicy(1, 3, 600)
        tape = {0: 0.95, 1: 0.05, 2: 0.5}
        frozen = {}
        for t in range(1, 601):
            arm = int(policy.select(t)[0])
            policy.update(t, np.array([arm]), np.array([tape[arm]]))
            counts = policy.stats.counts[0]
            for dead in np.nonzero(~policy.active[0])[0]:
                frozen.setdefault(int(dead), counts[dead])
                assert counts[dead] == frozen[int(dead)]
        assert frozen, "tape should eliminate at least one arm"
