"""Baseline index formulas and policy behaviors."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from eucbv.config import preset_testbed
from eucbv.env import make_environment, reward_noise, sample_rewards_batch
from eucbv.policies import (
    POLICY_IDS,
    bayes_ucb_index,
    confidence_radius,
    kl_bernoulli,
    klucb_index,
    make_batch_policy,
    moss_index,
    ocucb_index,
    ucb1_index,
    ucbv_index,
    validate_params,
)
from eucbv.policies.bayes import (
    _P1, _P2, _Q1, _Q2, TsBetaPolicy, _horner, _level, _tail_term, ndtri,
)
from eucbv.policies.kl import _contends, klucb_argmax
from eucbv.rng import DOMAIN_POLICY, StreamBatch, gamma_constants
from eucbv.simulator import checkpoint_times, run_batch
from oracles import derive_key


def _rng(seed=0, lanes=1):
    return StreamBatch(np.array([derive_key(seed, k) for k in range(lanes)],
                                dtype=np.uint64))


class TestIndexFormulas:
    def test_ucb1_example(self):
        # mean .5, z=4, t=e^4 -> 0.5 + sqrt(2) = 1.91421...
        got = float(ucb1_index(0.5, 4, math.e ** 4))
        assert got == pytest.approx(1.9142135623730951, abs=1e-9)

    def test_moss_clamps_exploration(self):
        # z >= T/K makes the exploration term exactly 0.
        assert float(moss_index(0.5, 500, 1000, 2)) == pytest.approx(0.5)

    def test_ts_beta_flat_prior_is_uniform(self):
        # An unpulled arm's TS-Beta sample is one Beta(1, 1) cell draw.
        lane = _rng(1)
        d, c = gamma_constants(np.ones((1, 2)))
        xs = np.array([lane.beta_block(d, c)[0, 0] for _ in range(2000)])
        assert (xs > 0).all() and (xs < 1).all()
        assert abs(xs.mean() - 0.5) < 0.03
        assert abs(np.quantile(xs, 0.25) - 0.25) < 0.04

    @pytest.mark.parametrize("mean,pulls,t", [(0.3, 7, 50), (0.9, 2, 10), (0.07, 40, 60000)])
    def test_against_extended_precision(self, mean, pulls, t):
        var = 0.1
        horizon, n_arms = 60000, 20
        assert float(ucb1_index(mean, pulls, t)) == pytest.approx(
            oracles.ucb1_index(mean, pulls, t), rel=1e-12)
        assert float(ucbv_index(mean, var, pulls, t)) == pytest.approx(
            oracles.ucbv_index(mean, var, pulls, t), rel=1e-12)
        assert float(moss_index(mean, pulls, horizon, n_arms)) == pytest.approx(
            oracles.moss_index(mean, pulls, horizon, n_arms), rel=1e-12)
        assert float(ocucb_index(mean, pulls, horizon)) == pytest.approx(
            oracles.ocucb_index(mean, pulls, horizon), rel=1e-12)

    def test_round_policies_have_no_index(self):
        # Round-structured policies sweep the arms in order whatever the
        # rewards say; an index policy would chase the best mean (arm 3).
        for pid in ("ucb-improved", "median-elim"):
            policy = make_batch_policy(pid, 1, 4, 10 ** 5)
            for arm, reward in enumerate((0.0, 0.1, 0.2, 1.0)):
                policy.update(arm + 1, np.array([arm]), np.array([reward]))
            seq = []
            for t in range(5, 13):
                arm = int(policy.select(t)[0])
                seq.append(arm)
                policy.update(t, np.array([arm]), np.array([float(arm == 3)]))
            assert seq == [0, 1, 2, 3, 0, 1, 2, 3], pid


class TestKlUcb:
    def test_divergence_examples(self):
        assert kl_bernoulli(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert kl_bernoulli(0.3, 0.7) == pytest.approx(oracles.kl_bernoulli(0.3, 0.7), rel=1e-9)
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-6)

    @pytest.mark.parametrize("mean,pulls,t", [
        (0.07, 9, 200), (0.5, 30, 60000), (0.0, 1, 21), (1.0, 5, 100), (0.99, 3, 50),
    ])
    def test_index_matches_slow_bisection(self, mean, pulls, t):
        got = float(klucb_index(mean, pulls, t))
        want = oracles.klucb_index_slow(mean, pulls, t)
        assert got == pytest.approx(want, abs=2e-9)

    def test_index_within_pinsker_envelope(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mean = float(rng.random())
            pulls = int(rng.integers(1, 1000))
            t = int(rng.integers(pulls, 10 ** 6))
            idx = float(klucb_index(mean, pulls, t))
            rhs = max(math.log(t / pulls), 0.0) / pulls
            assert mean - 1e-12 <= idx <= min(1.0, mean + math.sqrt(rhs / 2.0) + 1e-9)

    def test_index_does_not_read_batch_mates(self):
        # A wide bracket (mean 0.05, z = 1) next to a narrow one once set
        # the bisection count for both.
        alone = float(klucb_index(0.3, 2000, 60000))
        batched = klucb_index(np.array([[0.3, 0.05]]), np.array([[2000.0, 1.0]]), 60000)
        assert batched[0, 0] == alone

    def test_exhausted_budget_collapses_to_mean(self):
        # z == t makes the exploration allowance ln(t/z) = 0.
        assert float(klucb_index(0.4, 50, 50)) == pytest.approx(0.4, abs=2e-9)

    def test_argmax_breaks_ties_at_lowest_column(self):
        # Column 1 is the best cell and columns 2-3 duplicate it exactly.
        # At t = 5 every allowance is 0, so each index is its mean: columns
        # 1 and 2 tie without being duplicates.
        means = np.array([[0.3, 0.5, 0.5, 0.5], [0.3, 0.5, 0.5, 0.2]])
        pulls = np.array([[10.0, 7.0, 7.0, 7.0], [10.0, 7.0, 20.0, 5.0]])
        for t in (100, 5):
            want = np.argmax(klucb_index(means, pulls, t), axis=1)
            assert np.array_equal(klucb_argmax(means, pulls, t), want)
        assert np.array_equal(klucb_argmax(means, pulls, 5), [1, 1])

    def test_prune_margin(self):
        # A cell stays unless lo + 2*width + 2**-40 is strictly below the
        # lane's best lo.  Each value below is exact in binary.
        best = np.array([0.5, 0.5, 0.5])
        lo = np.array([0.5 - 2.0 ** -40, 0.25, 0.5 - 2.0 ** -39])
        width = np.array([0.0, 0.125 - 2.0 ** -41, 0.0])
        assert _contends(lo, width, best).tolist() == [True, True, False]


class TestBayesUcb:
    def test_beta_quantile_matches_scipy(self):
        from scipy import stats as sps

        t, horizon = 57, 60000
        level = 1.0 - 1.0 / (t * math.log(horizon))
        want = sps.beta(4.0, 8.0).ppf(level)
        got = float(bayes_ucb_index(3.0, 10, t, horizon))
        assert got == pytest.approx(want, rel=1e-9)

    def test_gauss_quantile_matches_scipy(self):
        from scipy import stats as sps

        t, horizon = 33, 1000
        level = 1.0 - 1.0 / (t * math.log(horizon))
        want = sps.norm(1.2 / 5.0, math.sqrt(1.0 / 5.0)).ppf(level)
        got = float(bayes_ucb_index(1.2, 4, t, horizon, "gauss"))
        assert got == pytest.approx(want, rel=1e-9)

    def test_gauss_index_equals_scipy_formula(self):
        # sums/(1+z) + ndtri(level)/sqrt(1+z), float for float
        from scipy.special import ndtri as scipy_ndtri

        gen = np.random.default_rng(5)
        pulls = gen.integers(0, 5000, size=(50, 100)).astype(np.float64)
        sums = gen.normal(0.05, 0.5, size=pulls.shape) * np.sqrt(pulls)
        for t, horizon in ((101, 400000), (2000, 2000), (299999, 300000)):
            precision = 1.0 + pulls
            want = sums / precision + scipy_ndtri(_level(t, horizon)) / np.sqrt(precision)
            assert np.array_equal(bayes_ucb_index(sums, pulls, t, horizon, "gauss"), want)

    def test_unknown_prior_rejected(self):
        with pytest.raises(ValueError, match="'gaus'"):
            bayes_ucb_index(1.2, 4, 33, 1000, "gaus")
        with pytest.raises(ValueError, match="'gaus'"):
            make_batch_policy("bayes-ucb", 1, 4, 100, {"prior": "gaus"})


def _ndtri_grid() -> list:
    """Probabilities over all three ranges of ndtri and around their edges:
    exp(-2), 1 - exp(-2), and x = sqrt(-2 ln y) = 8 (y = exp(-32)), in both
    tails, plus 0, the smallest subnormal and the largest float below 1."""
    e2, e32 = math.exp(-2.0), math.exp(-32.0)
    grid = [
        *np.linspace(0.0, 1.0, 20001),
        *np.logspace(-323.0, -0.5, 20000),
        *(1.0 - np.logspace(-16.0, -0.5, 20000)),
    ]
    for edge in (e2, 1.0 - e2, e32, 1.0 - e32, 5e-324, np.nextafter(1.0, 0.0)):
        below = above = float(edge)
        for _ in range(128):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            grid += [below, above]
        grid.append(edge)
    return [float(y) for y in grid]


class TestNdtri:
    """The in-repo ndtri returns the float ``scipy.special.ndtri`` returns:
    compared with ==, never a tolerance."""

    @staticmethod
    def _mismatches(ys):
        from scipy.special import ndtri as scipy_ndtri

        want = scipy_ndtri(np.array(ys)).tolist()
        return [(y, got, w) for y, got, w in zip(ys, map(ndtri, ys), want)
                if not (got == w or (math.isnan(got) and math.isnan(w)))]

    def test_every_level_of_the_presets(self):
        # the levels 1 - 1/(t ln T) a Bayes-UCB lane asks for at t = K+1..T,
        # at each (K, T) of expt2-expt4 at the paper horizon
        shapes = set()
        for preset in ("expt2", "expt3", "expt4"):
            env, horizon = preset_testbed(preset)
            shapes.add((env.n_arms, horizon))
        assert shapes == {(100, 300000), (100, 400000)}
        for n_arms, horizon in sorted(shapes):
            levels = [_level(t, horizon) for t in range(n_arms + 1, horizon + 1)]
            assert self._mismatches(levels) == []

    def test_grid_over_every_range_and_edge(self):
        grid = _ndtri_grid()
        x = [math.sqrt(-2.0 * math.log(y)) for y in grid if 0.0 < y < 1.0]
        # each range of the approximation, and the x = 8 split itself, is hit
        assert any(math.exp(-2.0) < y < 1.0 - math.exp(-2.0) for y in grid)
        assert any(2.0 <= v < 8.0 for v in x) and any(v > 8.0 for v in x)
        assert 8.0 in x
        assert self._mismatches(grid) == []

    def test_tail_split_at_eight(self):
        # Cephes takes (P1, Q1) for x < 8 and (P2, Q2) from 8 on.  At x = 8
        # the two terms differ by an ulp that x - ln(x)/x absorbs, so
        # ndtri's output cannot show which one ran; the term itself does.
        def term(x, p, q):
            return (1.0 / x) * _horner(1.0 / x, p) / _horner(1.0 / x, q)

        assert term(8.0, _P1, _Q1) != term(8.0, _P2, _Q2)
        assert _tail_term(8.0) == term(8.0, _P2, _Q2)
        below = float(np.nextafter(8.0, 0.0))
        assert _tail_term(below) == term(below, _P1, _Q1)

    def test_outside_the_open_interval(self):
        assert ndtri(0.0) == -math.inf
        assert ndtri(1.0) == math.inf
        for y in (-0.1, 1.1, math.nan, -math.inf, math.inf):
            assert math.isnan(ndtri(y))
        assert self._mismatches([0.0, 1.0, -0.1, 1.1, math.nan]) == []


def _oracle_score(pid, mean, variance, pulls, t, horizon, n_arms):
    if pid == "ucb1":
        return oracles.ucb1_index(mean, pulls, t)
    if pid == "ucbv":
        return oracles.ucbv_index(mean, variance, pulls, t)
    if pid == "moss":
        return oracles.moss_index(mean, pulls, horizon, n_arms)
    if pid == "ocucb":
        return oracles.ocucb_index(mean, pulls, horizon)
    return oracles.klucb_index_slow(mean, pulls, t)


class TestBatchSelectConsistency:
    """Batch policies must pick the argmax of the extended-precision indices."""

    @pytest.mark.parametrize("pid", ["ucb1", "ucbv", "moss", "ocucb", "klucb-plus"])
    def test_select_is_argmax_of_scalar_indices(self, pid):
        rng = np.random.default_rng(17)
        n_arms, horizon = 6, 5000
        for _ in range(20):
            policy = make_batch_policy(pid, 1, n_arms, horizon)
            pulls = rng.integers(1, 80, size=n_arms)
            t = int(pulls.sum()) + 1
            step = 0
            for arm in range(n_arms):
                for _ in range(int(pulls[arm])):
                    step += 1
                    policy.update(step, np.array([arm]),
                                  np.array([float(rng.random() < 0.4)]))
            chosen = int(policy.select(t)[0])
            means = policy.stats.means()[0]
            variances = policy.stats.variances()[0]
            scores = [
                _oracle_score(pid, means[a], variances[a], int(pulls[a]), t,
                              horizon, n_arms)
                for a in range(n_arms)
            ]
            best = max(scores)
            assert scores[chosen] == pytest.approx(best, abs=3e-9)
            # lowest index among (near-)maximizers
            assert chosen == min(a for a, s in enumerate(scores) if s >= best - 3e-9)


def _fresh_radius(policy):
    """EUCBV's radius recomputed from its PullStats and rounds, no cache."""
    stats = policy.stats
    return confidence_radius(stats.variances(), stats.counts,
                             policy._log_conf[policy.m][:, None], policy.rho)


def _fresh_index(pid, policy, t):
    """The policy's index at t recomputed from its PullStats, no cache
    involved; EUCBV's upper bound reads -inf outside the active set."""
    stats = policy.stats
    if pid == "eucbv":
        return np.where(policy.active, stats.means() + _fresh_radius(policy), -np.inf)
    if pid == "ucbv":
        return ucbv_index(stats.means(), stats.variances(), stats.counts, t)
    if pid == "moss":
        return moss_index(stats.means(), stats.counts, policy.horizon, policy.n_arms)
    return ocucb_index(stats.means(), stats.counts, policy.horizon)


def _cached_index(pid, policy):
    """The index the selection read from the cache (UCB-V's, the buffer its
    selection evaluated)."""
    return policy._ucb if pid == "eucbv" else policy._index


def _assert_fresh_ucbv_terms(policy):
    """UCB-V's per-cell mean, 2v and 2z equal fresh ones bit for bit."""
    stats = policy.stats
    assert np.array_equal(policy._mean, stats.means())
    assert np.array_equal(policy._two_v, 2.0 * stats.variances())
    assert np.array_equal(policy._two_z, 2.0 * stats.counts)


def _fresh_posterior_sample(policy):
    """TS-Gauss's choice from a posterior recomputed from its PullStats and
    a full normal block drawn on a clone of its stream; asserts the cached
    posterior equals the fresh one bit for bit."""
    precision = 1.0 + policy.stats.counts
    post_mean, post_sd = policy.stats.sums / precision, 1.0 / np.sqrt(precision)
    assert np.array_equal(policy._post_mean, post_mean)
    assert np.array_equal(policy._post_sd, post_sd)
    clone = StreamBatch(policy.rng.keys.copy())
    clone.counters[:] = policy.rng.counters
    samples = post_mean + post_sd * clone.normal_block(policy.n_arms)
    return np.argmax(samples, axis=1), clone.counters


class TestCachedIndices:
    """EUCBV's masked per-cell bounds, UCB-V's per-cell terms, the MOSS/OCUCB
    per-cell indices and the TS-Gauss posteriors equal fresh ones bit for bit
    and choose what they would, at every step."""

    @pytest.mark.parametrize("pid", ["eucbv", "ucbv", "moss", "ocucb", "ts-gauss"])
    def test_choice_is_argmax_of_fresh_index(self, pid):
        env = make_environment("gaussian", [0.1, 0.3, 0.5, 0.55, 0.9], [0.04] * 5)
        horizon, lanes = 2000, 3
        rng = StreamBatch.for_runs(1, range(lanes), DOMAIN_POLICY)
        policy = make_batch_policy(pid, lanes, env.n_arms, horizon, rng=rng)
        streams = StreamBatch.for_runs(1, range(lanes))
        for t in range(1, horizon + 1):
            if pid == "ts-gauss":  # checks the cache before select draws
                sampled, counters = _fresh_posterior_sample(policy)
            arms = policy.select(t)
            if t > env.n_arms and pid == "ts-gauss":
                assert np.array_equal(arms, sampled)
                assert np.array_equal(rng.counters, counters)
            elif t > env.n_arms:
                fresh = _fresh_index(pid, policy, t)
                assert np.array_equal(_cached_index(pid, policy), fresh)
                if pid == "eucbv":
                    lcb = policy.stats.means() - _fresh_radius(policy)
                    assert np.array_equal(policy._lcb, np.where(policy.active, lcb, -np.inf))
                if pid == "ucbv":
                    _assert_fresh_ucbv_terms(policy)
                assert np.array_equal(arms, np.argmax(fresh, axis=1))
            noise = reward_noise(env, streams, 1)[:, 0]
            policy.update(t, arms, sample_rewards_batch(env, arms, noise))
        if pid == "eucbv":
            # every lane reset rounds and eliminated; some, not all, committed
            live = policy.active.sum(axis=1)
            assert (policy.m > 1).all() and (live < env.n_arms).all()
            assert (live == 1).any() and (live > 1).any()


class TestTsPolicies:
    def test_ts_beta_requires_stream(self):
        with pytest.raises(ValueError):
            make_batch_policy("ts-beta", 1, 2, 100)

    def test_ts_beta_binary_rewards_consume_no_flip(self):
        rng = _rng(3)
        policy = make_batch_policy("ts-beta", 1, 2, 100, rng=rng)
        before = int(rng.counters[0])
        policy.update(1, np.array([0]), np.array([1.0]))
        assert int(rng.counters[0]) == before
        policy.update(2, np.array([0]), np.array([0.5]))  # non-binary: one flip
        assert int(rng.counters[0]) == before + 1
        assert policy.stats.counts[0, 0] == 2.0
        assert policy.successes[0, 0] in (1.0, 2.0)

    def test_ts_beta_converges_to_best_arm(self):
        rng = _rng(5)
        policy = make_batch_policy("ts-beta", 1, 2, 3000, rng=rng)
        reward_rng = np.random.default_rng(6)
        counts = np.zeros(2)
        for t in range(1, 3001):
            arm = int(policy.select(t)[0])
            counts[arm] += 1
            p = (0.8, 0.2)[arm]
            policy.update(t, np.array([arm]), np.array([float(reward_rng.random() < p)]))
        assert counts[0] > 0.8 * 3000

    def test_ts_gauss_posterior_shrinks(self):
        rng = _rng(9)
        policy = make_batch_policy("ts-gauss", 1, 2, 1000, rng=rng)
        for t in range(1, 401):
            policy.update(t, np.array([0]), np.array([1.0]))
        samples = np.array([float(policy.select(500)[0] == 0) for _ in range(200)])
        # arm 0 posterior ~ N(400/401, 1/401), arm 1 still ~ N(0, 1): arm 0
        # wins whenever the prior sample stays below ~1, i.e. ~84% of draws
        assert samples.mean() > 0.75


class _RowTrialTsBeta(TsBetaPolicy):
    """TS-Beta sampling from shapes rebuilt every step, by whole-row
    Marsaglia-Tsang trials (``oracles.gamma_rows``)."""

    def _select(self, t):
        a = self.successes + 1.0
        b = self.stats.counts - self.successes + 1.0
        both = oracles.gamma_rows(self.rng, np.concatenate([a, b], axis=1))
        x = both[:, :self.n_arms]
        return np.argmax(x / (x + both[:, self.n_arms:]), axis=1)


class TestTsBetaSampler:
    """TS-Beta's cached Marsaglia-Tsang constants and pending-cell retries
    give the draws of fresh shapes and whole-row trials."""

    @pytest.mark.parametrize("lanes", [1, 50, 100])
    def test_trajectory_equals_row_trial_reference(self, lanes):
        env, _ = preset_testbed("expt1")
        horizon = 2000
        every_step = checkpoint_times(horizon, horizon)
        runs = []
        for cls in (TsBetaPolicy, _RowTrialTsBeta):
            rng = StreamBatch.for_runs(1, range(lanes), DOMAIN_POLICY)
            policy = cls(lanes, env.n_arms, horizon, rng=rng)
            curves, pulls, _ = run_batch(env, policy, horizon,
                                         StreamBatch.for_runs(1, range(lanes)), every_step)
            runs.append((curves, pulls, rng.counters))
        (curves, pulls, counters), (ref_curves, ref_pulls, ref_counters) = runs
        assert np.array_equal(pulls, ref_pulls)
        assert np.array_equal(curves, ref_curves)  # the regret after every step
        assert np.array_equal(counters, ref_counters)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_cached_constants_equal_fresh(self, lanes, n_arms, seed):
        rng = np.random.default_rng(seed)
        policy = make_batch_policy("ts-beta", lanes, n_arms, 80,
                                   rng=StreamBatch.for_runs(seed, range(lanes), DOMAIN_POLICY))
        for t in range(1, 81):
            arms = policy.select(t)
            # binary rewards, and others that TS-Beta Bernoulli-rounds
            rewards = np.where(rng.random(lanes) < 0.5, rng.integers(0, 2, size=lanes),
                               rng.random(lanes))
            policy.update(t, arms, rewards)
            s = policy.successes
            d, c = gamma_constants(
                np.concatenate([s + 1.0, policy.stats.counts - s + 1.0], axis=1))
            assert np.array_equal(policy._d, d)
            assert np.array_equal(policy._c, c)

    def test_shape_table_equals_fresh_constants(self):
        # Every reward is 1, so the pulled arm's a shape climbs to its count
        # + 1; the table doubles as t passes its size, never sized by T.
        horizon = 2000
        policy = make_batch_policy("ts-beta", 1, 2, horizon, rng=_rng(4))
        sizes = {policy._table[0].size}
        for t in range(1, horizon + 1):
            policy.update(t, policy.select(t), np.ones(1))
            sizes.add(policy._table[0].size)
        assert sizes == {64, 128, 256, 512, 1024, 2048}
        assert policy.successes.max() > 1000
        d, c = gamma_constants(np.arange(1.0, horizon + 2.0))
        assert np.array_equal(policy._table[0][:horizon + 1], d)
        assert np.array_equal(policy._table[1][:horizon + 1], c)


def _replay_against_reference(pid, refs, means, horizon, params=None, seed=29):
    """Drive the production policy with len(refs) lanes and each scalar
    reference on the same Bernoulli reward tape; assert equal pulls."""
    rng = np.random.default_rng(seed)
    n_lanes, n_arms = len(refs), len(means)
    batch = make_batch_policy(pid, n_lanes, n_arms, horizon, params)
    tapes = [rng.random((horizon, n_arms)) < np.array(means) for _ in range(n_lanes)]
    for t in range(1, horizon + 1):
        arms = batch.select(t)
        rewards = []
        for lane, ref in enumerate(refs):
            arm = ref.select(t)
            assert arm == arms[lane], f"diverged at t={t} lane={lane}"
            r = float(tapes[lane][t - 1, arm])
            ref.update(arm, r)
            rewards.append(r)
        batch.update(t, arms, np.array(rewards))
    for lane, ref in enumerate(refs):
        assert np.array_equal(batch.pull_counts()[lane], ref.pull_counts())
        want = ref.survivor()
        assert batch.survivors()[lane] == (-1 if want is None else want)
    return batch


class TestRoundPolicies:
    def test_dmed_initial_sweep_and_refill(self):
        policy = make_batch_policy("dmed", 1, 3, 100)
        seq = []
        for t in range(1, 10):
            arm = int(policy.select(t)[0])
            seq.append(arm)
            policy.update(t, np.array([arm]), np.array([1.0 if arm == 0 else 0.0]))
        assert seq[:3] == [0, 1, 2]
        # after the first sweep, only arms passing the divergence gate return
        assert 0 in seq[3:]

    def test_dmed_converges_to_best(self):
        policy = make_batch_policy("dmed", 1, 3, 4000)
        rng = np.random.default_rng(21)
        means = (0.7, 0.3, 0.1)
        for t in range(1, 4001):
            arm = int(policy.select(t)[0])
            policy.update(t, np.array([arm]), np.array([float(rng.random() < means[arm])]))
        assert policy.pull_counts()[0, 0] > 2500

    def test_dmed_batch_matches_scalar_reference(self):
        # the production (vectorized) dmed must reproduce the scalar queue
        # implementation pull-for-pull
        refs = [oracles.DmedPolicy(4, 800) for _ in range(2)]
        _replay_against_reference("dmed", refs, (0.6, 0.5, 0.2, 0.55), 800)

    def test_ucb_improved_batch_matches_scalar_reference(self):
        horizon = 6000
        refs = [oracles.UcbImprovedPolicy(4, horizon) for _ in range(3)]
        batch = _replay_against_reference(
            "ucb-improved", refs, (0.9, 0.6, 0.3, 0.82), horizon, seed=31)
        # the tapes exercise several rounds and eliminations down to a
        # committed lane
        assert (batch.survivors() >= 0).any()
        assert max(ref.round for ref in refs) >= 3
        # a committed lane finishes no more rounds
        assert batch.m.tolist() == [ref.round for ref in refs]

    def test_median_elim_batch_matches_scalar_reference(self):
        params = {"epsilon": 0.9, "delta": 0.9}
        refs = [oracles.MedianElimPolicy(5, 4000, **params) for _ in range(3)]
        batch = _replay_against_reference(
            "median-elim", refs, (0.7, 0.5, 0.4, 0.6, 0.45), 4000, params, seed=37)
        # quotas 150, 364, 820: 5 -> 3 -> 2 -> 1 arm within the horizon; the
        # odd rounds keep the arm whose mean is the median
        assert (batch.survivors() >= 0).all()
        assert batch.m.tolist() == [3, 3, 3]

    def test_median_elim_committed_lane_finishes_no_round(self):
        # round 0 (quota 150) drops arm 1; the lane then pulls arm 0 past
        # every later quota (364, 820, ...) but finishes no further round
        policy = make_batch_policy("median-elim", 1, 2, 4000, {"epsilon": 0.9, "delta": 0.9})
        for t in range(1, 4001):
            arm = int(policy.select(t)[0])
            policy.update(t, np.array([arm]), np.array([(0.9, 0.1)[arm]]))
        assert policy.survivors().tolist() == [0]
        assert policy.pull_counts()[0].tolist() == [3850, 150]
        assert policy.m.tolist() == [1]

    def test_ucb_improved_stops_at_round_cap(self):
        # T = 695 puts T d^2 just under 4e in the last round (M = 3), whose
        # quota 306 two equal arms can still reach; no fifth round follows
        refs = [oracles.UcbImprovedPolicy(2, 695) for _ in range(2)]
        _replay_against_reference("ucb-improved", refs, (0.5, 0.5), 695, seed=41)
        assert [ref.round for ref in refs] == [4, 4]
        assert all(len(ref.active) == 2 for ref in refs)

    def test_ucb_improved_round_structure(self):
        horizon = 4000
        policy = make_batch_policy("ucb-improved", 1, 2, horizon)
        # round 0 quota: ceil(2*ln(T)/1)
        assert policy._quotas[0] == math.ceil(2 * math.log(horizon))
        rng = np.random.default_rng(23)
        for t in range(1, horizon + 1):
            arm = int(policy.select(t)[0])
            policy.update(t, np.array([arm]), np.array([float(rng.random() < (0.9, 0.1)[arm])]))
        assert policy.survivors()[0] == 0
        # eliminated arm froze at (or just past) a round boundary
        assert policy.pull_counts()[0, 1] < horizon / 4

    def test_median_elim_drops_half_per_round(self):
        policy = make_batch_policy("median-elim", 1, 4, 10 ** 6,
                                   {"epsilon": 0.8, "delta": 0.5})
        quota = int(policy._quotas[0])
        means = (0.9, 0.6, 0.4, 0.1)
        t = 0
        while policy.active[0].sum() == 4:
            t += 1
            arm = int(policy.select(t)[0])
            policy.update(t, np.array([arm]), np.array([means[arm]]))  # deterministic rewards
            assert t <= 4 * quota + 4
        assert policy.active[0].tolist() == [True, True, False, False]
        # fresh per-round estimates: round counters were reset
        assert policy._round_counts.sum() == 0

    def test_median_elim_parameter_validation(self):
        with pytest.raises(ValueError):
            make_batch_policy("median-elim", 1, 3, 100, {"epsilon": 0.0})


class TestRegistry:
    def test_all_ids_instantiate(self):
        for pid in POLICY_IDS:
            rng = _rng(1, lanes=2)
            policy = make_batch_policy(pid, 2, 3, 500, rng=rng)
            arms = policy.select(1)
            assert arms.tolist() == [0, 0]
            policy.update(1, arms, np.array([0.5, 1.0]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_batch_policy("ucb9000", 1, 2, 100)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            validate_params("ucb1", {"alpha": 1.0})

    def test_param_coercion(self):
        params = validate_params("median-elim", {"epsilon": "0.1", "delta": "0.2"})
        assert params == {"epsilon": 0.1, "delta": 0.2}

    def test_single_run_adapter_contract(self):
        # a single run is a one-lane batch
        policy = make_batch_policy("ucb1", 1, 3, 50)
        assert policy.select(1).tolist() == [0]
        policy.update(1, np.array([0]), np.array([1.0]))
        assert policy.survivors().tolist() == [-1]
        assert policy.pull_counts().tolist() == [[1, 0, 0]]

    def test_pull_counts_dtype(self):
        policy = make_batch_policy("ucb1", 1, 2, 50)
        policy.update(1, np.array([1]), np.array([0.5]))
        assert policy.pull_counts().dtype == np.int64
        assert policy.pull_counts().tolist() == [[0, 1]]
