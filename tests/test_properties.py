"""Property-based invariants (hypothesis)."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from eucbv.env import make_environment, reward_noise, sample_rewards_batch
from eucbv.policies import kl, make_batch_policy
from eucbv.policies.base import dominated
from eucbv.policies.eucbv import EucbvPolicy, confidence_radius
from eucbv.policies.kl import kl_bernoulli, klucb_argmax, klucb_index
from eucbv.rng import StreamBatch, _mix64_np
from eucbv.simulator import checkpoint_times, run_batch
from eucbv.stats import PullStats

_SETTINGS = settings(max_examples=200, deadline=None)

rewards_01 = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=300
)


def _one_cell(rewards):
    """(mean, variance) of a one-lane, one-arm PullStats fed ``rewards``."""
    stats = PullStats(1, 1)
    arm = np.zeros(1, dtype=np.int64)
    for r in rewards:
        stats.record(arm, np.array([r]))
    return float(stats.means()[0, 0]), float(stats.variances()[0, 0])


@_SETTINGS
@given(rewards_01)
def test_variance_matches_two_pass_oracle(rewards):
    _, v = _one_cell(rewards)
    assert abs(v - oracles.two_pass_variance(rewards)) <= 1e-10


@_SETTINGS
@given(rewards_01)
def test_variance_bounded_by_quarter_on_unit_interval(rewards):
    _, v = _one_cell(rewards)
    assert 0.0 <= v <= 0.25 + 1e-12


@_SETTINGS
@given(rewards_01, st.randoms(use_true_random=False))
def test_estimates_permutation_invariant(rewards, rnd):
    shuffled = list(rewards)
    rnd.shuffle(shuffled)
    (ma, va), (mb, vb) = _one_cell(rewards), _one_cell(shuffled)
    assert abs(ma - mb) <= 1e-12
    assert abs(va - vb) <= 1e-10


@_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_mix64_scalar_matches_vector(z):
    assert oracles.mix64(z) == int(_mix64_np(np.array([z], dtype=np.uint64))[0])


@_SETTINGS
@given(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=20),
       st.integers(min_value=0, max_value=2))
def test_for_runs_keys_match_scalar_derivation(seed, runs, domain):
    keys = StreamBatch.for_runs(seed, runs, domain).keys
    assert keys.tolist() == [oracles.derive_key(seed, run, domain) for run in runs]


@_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=0, max_value=1000))
def test_stream_reproducible_and_count_independent(seed, run):
    first = oracles.RngStream(oracles.derive_key(seed, run)).uniforms(32)
    again = StreamBatch.for_runs(seed, [run]).uniform_block(32)[0]
    assert np.array_equal(first, again)
    batch = StreamBatch.for_runs(seed, range(run, run + 5))
    assert np.array_equal(batch.uniform_block(32)[0], first)


@_SETTINGS
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=10 ** 5),
    st.integers(min_value=1, max_value=10 ** 7),
)
def test_klucb_index_bracketed(mean, pulls, t):
    t = max(t, pulls)
    idx = float(klucb_index(mean, pulls, t))
    assert mean - 1e-12 <= idx <= 1.0


_KL_CELL = st.tuples(st.floats(min_value=0.0, max_value=1.0),
                     st.integers(min_value=1, max_value=10 ** 5))


@_SETTINGS
@given(_KL_CELL, st.lists(_KL_CELL, max_size=12), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=10 ** 7))
def test_klucb_index_independent_of_batch_mates(cell, mates, pos, t):
    # A cell's index is the same alone and anywhere in any array at the
    # same t, so it cannot depend on the lanes or arms it is batched with.
    cells = list(mates)
    cells.insert(min(pos, len(cells)), cell)
    means, pulls = (np.array(col, dtype=np.float64) for col in zip(*cells))
    t = max(t, int(pulls.max()))
    alone = float(klucb_index(cell[0], cell[1], t))
    assert float(klucb_index(means, pulls, t)[min(pos, len(mates))]) == alone


def _mean_with_index(q, pulls, t):
    """A mean whose KL-UCB+ index at (pulls, t) is about q: the root b <= q
    of pulls * kl(b, q) = ln(t / pulls), by bisection (0 if there is none)."""
    rhs = max(math.log(t / pulls), 0.0) / pulls
    if rhs == 0.0:
        return q
    if kl_bernoulli(0.0, q) <= rhs:
        return 0.0
    lo, hi = 0.0, q
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kl_bernoulli(mid, q) > rhs else (lo, mid)
    return hi


@st.composite
def _klucb_states(draw):
    """(means, pulls, t) of R lanes by K arms.  Besides random cells, a cell
    may repeat a lower column exactly, sit at the clamps or at z = 1 or
    z >= t (rhs = 0), or have an index within 1e-9..1e-6 of a lower column's,
    a near-tie that only the last halvings separate."""
    n_runs = draw(st.integers(min_value=1, max_value=4))
    n_arms = draw(st.integers(min_value=2, max_value=8))
    t = draw(st.integers(min_value=1, max_value=10 ** 6))
    means = np.empty((n_runs, n_arms))
    pulls = np.empty((n_runs, n_arms))
    for r in range(n_runs):
        for k in range(n_arms):
            kind = draw(st.sampled_from(["random", "edge", "duplicate", "near"])) \
                if k else draw(st.sampled_from(["random", "edge"]))
            j = draw(st.integers(min_value=0, max_value=max(k - 1, 0)))
            if kind == "random":
                mean = draw(st.floats(min_value=0.0, max_value=1.0))
                n = draw(st.integers(min_value=1, max_value=10 ** 5))
            elif kind == "edge":
                mean = draw(st.sampled_from([0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0]))
                n = draw(st.sampled_from([1, 2, t, t + 1]))
            elif kind == "duplicate":
                mean, n = means[r, j], pulls[r, j]
            else:
                n = draw(st.integers(min_value=1, max_value=10 ** 5))
                gap = draw(st.sampled_from([0.0, 1e-9, -1e-9, 3e-9, -3e-9, 1e-8, -1e-8,
                                            1e-7, -1e-7, 1e-6, -1e-6]))
                q = float(klucb_index(means[r, j], pulls[r, j], t)) + gap
                mean = _mean_with_index(min(max(q, 0.0), 1.0), n, t)
            means[r, k], pulls[r, k] = mean, n
    return means, pulls, t


@settings(max_examples=400, deadline=None)
@given(_klucb_states())
def test_klucb_argmax_equals_full_index_argmax(state):
    means, pulls, t = state
    want = np.argmax(klucb_index(means, pulls, t), axis=1)
    assert np.array_equal(klucb_argmax(means, pulls, t), want)


def _assert_bounds_bracket_index(means, pulls, t):
    """klucb_argmax's certified bounds hold: lower <= klucb_index < upper."""
    lower, upper = kl._bounds(kl._bracket(means, pulls, t))
    index = klucb_index(means, pulls, t).reshape(-1)
    assert np.all(lower <= index), (lower - index)[lower > index]
    assert np.all(index < upper), (index - upper)[index >= upper]


@settings(max_examples=400, deadline=None)
@given(_klucb_states())
def test_klucb_certified_bounds_bracket_full_index(state):
    _assert_bounds_bracket_index(*state)


def test_klucb_certified_bounds_at_the_edges():
    # Means at and beside the clamps, z = 1, z >= t (no allowance, the
    # index is the mean), brackets topped at 1 (few pulls, long horizon),
    # and tiny means with many pulls, whose bracket is hundreds of times
    # wider than index - mean, so the lower bound rests on the final width.
    means = np.array([0.0, 1e-15, 1e-9, 1e-6, 0.07, 0.5, 1.0 - 1e-15, 1.0])
    tops = no_allowance = 0
    for t in (1, 2, 3, 10, 2000, 10 ** 6, 10 ** 7):
        pulls = np.array(sorted({1, 2, max(t - 1, 1), t, t + 1, 10 ** 4, 3 * 10 ** 4,
                                 10 ** 5, 10 ** 6}), dtype=np.float64)
        grid_means, grid_pulls = (a.reshape(1, -1) for a in np.meshgrid(means, pulls))
        _assert_bounds_bracket_index(grid_means, grid_pulls, t)
        m, comp, target, lo, width = kl._bracket(grid_means, grid_pulls, t)
        # the bracket's start passes the halvings' own test
        assert np.all(kl._log_sum(m, m, comp, np.empty_like(m), np.empty_like(m)) >= target)
        tops += int(np.sum(lo + width == 1.0))
        no_allowance += int(np.sum(width == 0.0))
    assert tops and no_allowance


def _count_halvings(monkeypatch):
    """The list of n of every ``_halve`` call made from here on."""
    calls = []
    halve = kl._halve

    def counted(state, n):
        calls.append(n)
        halve(state, n)

    monkeypatch.setattr(kl, "_halve", counted)
    return calls


def test_klucb_argmax_bisects_a_near_tie(monkeypatch):
    # Arm 2's index is within about 1e-9 of arm 1's, far inside the bounds'
    # nudge of 2**-24 * (index - mean): only bisection can order them.
    t = 2000
    q = float(klucb_index(0.1, 300, t)) + 1e-9
    means = np.array([[0.02, 0.1, _mean_with_index(q, 500, t)]])
    pulls = np.array([[1000.0, 300.0, 500.0]])
    want = np.argmax(klucb_index(means, pulls, t), axis=1)
    halvings = _count_halvings(monkeypatch)
    assert np.array_equal(klucb_argmax(means, pulls, t), want)
    assert halvings


def test_klucb_argmax_decides_separated_and_repeated_lanes_unbisected(monkeypatch):
    # Lane 0's two best indices are 1e-6 apart, which the bounds resolve
    # but neither the mean nor the bracket's top does; lane 1's two best
    # arms are the same cell state, which folds to the lower column.
    t = 1000
    q = float(klucb_index(0.3, 100, t)) - 1e-6
    means = np.array([[0.1, 0.3, _mean_with_index(q, 100, t)], [0.1, 0.3, 0.3]])
    pulls = np.full((2, 3), 100.0)
    halvings = _count_halvings(monkeypatch)
    assert klucb_argmax(means, pulls, t).tolist() == [1, 1]
    assert not halvings


@_SETTINGS
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8),
    st.sampled_from([-2.0, -0.5, 0.5, 1.0, 4.0]),
)
def test_select_scale_free_in_means(eighths, shift):
    # Dyadic rewards and shifts keep every float operation exact, so the
    # argmax must be literally identical after shifting all rewards.
    base = [x / 8.0 for x in eighths]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = EucbvPolicy(1, 4, 100)
        b = EucbvPolicy(1, 4, 100)
    t = 0
    for r in base:  # round-robin so every arm is pulled before elimination
        for arm in range(4):
            t += 1
            a.update(t, np.array([arm]), np.array([r]))
            b.update(t, np.array([arm]), np.array([r + shift]))
    assert a.select(33)[0] == b.select(33)[0]


def _random_bernoulli_env(rnd):
    k = rnd.randint(2, 5)
    means = [rnd.randint(0, 100) / 100.0 for _ in range(k)]
    return make_environment("bernoulli", means)


@_SETTINGS
@given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=10 ** 6))
def test_eucbv_simulation_invariants(rnd, seed):
    env = _random_bernoulli_env(rnd)
    k = env.n_arms
    horizon = rnd.randint(k + 1, 160)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        policy = EucbvPolicy(1, k, horizon)
    lane = StreamBatch.for_runs(seed, [0])
    gaps = env.gaps
    regret = 0.0
    prev_regret = 0.0
    pull_log = []
    prev_m = 0

    for t in range(1, horizon + 1):
        arms = policy.select(t)
        arm = int(arms[0])
        assert policy.active[0].any()
        if t > k:
            assert policy.active[0, arm], "pulled an eliminated arm"
        noise = reward_noise(env, lane, 1)[:, 0]
        policy.update(t, arms, sample_rewards_batch(env, arms, noise))
        pull_log.append(arm)
        m = int(policy.m[0])
        if m != prev_m:  # a reset enters round m: N_m = t + |B| * n_m
            assert m == prev_m + 1
            quota = oracles.round_quota(Fraction(horizon, k * k), horizon, 2.0 ** -m)
            assert policy.deadline[0] == t + policy.active[0].sum() * quota
            prev_m = m
        assert m <= policy.max_rounds + 1
        regret += gaps[arm]
        assert regret >= prev_regret >= 0.0
        prev_regret = regret
    pulls = policy.pull_counts()[0]
    assert pulls.sum() == horizon
    assert abs(float(gaps @ pulls) - regret) < 1e-9
    # eliminated arms never pulled again
    dead = np.nonzero(~policy.active[0])[0]
    for arm in dead:
        last = max(i for i, a in enumerate(pull_log) if a == arm)
        stayed_dead = [i for i, a in enumerate(pull_log) if a == arm and i > last]
        assert not stayed_dead


@_SETTINGS
@given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=10 ** 6))
def test_run_once_invariants_for_index_policies(rnd, seed):
    env = _random_bernoulli_env(rnd)
    horizon = rnd.randint(env.n_arms, 120)
    pid = rnd.choice(["ucb1", "moss", "ucbv", "ocucb", "dmed"])
    policy = make_batch_policy(pid, 1, env.n_arms, horizon)
    curves, pulls, _ = run_batch(env, policy, horizon, StreamBatch.for_runs(seed, [1]),
                                 checkpoint_times(horizon, horizon))
    curve, pulls = curves[0], pulls[0]
    assert pulls.sum() == horizon
    assert (np.diff(curve) >= -1e-12).all()
    assert curve[0] >= 0.0
    assert abs(curve[-1] - float(env.gaps @ pulls)) < 1e-9


@_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=8))
def test_dominated_keeps_the_best_lower_bound(seed, n_lanes, n_arms):
    # quarter-step values make ties between bounds common
    rng = np.random.default_rng(seed)
    lower = rng.integers(0, 5, size=(n_lanes, n_arms)) / 4.0
    upper = lower + rng.integers(0, 3, size=(n_lanes, n_arms)) / 4.0
    active = rng.random((n_lanes, n_arms)) < 0.7
    active[np.arange(n_lanes), rng.integers(0, n_arms, size=n_lanes)] = True
    mask = dominated(np.where(active, upper, -np.inf), np.where(active, lower, -np.inf))
    assert (active & ~mask).any(axis=1).all()
    assert mask[~active].all()  # an inactive cell stays out
    best = np.argmax(np.where(active, lower, -np.inf), axis=1)
    assert not mask[np.arange(n_lanes), best].any()
    for r in range(n_lanes):
        best_lower = max(lower[r, j] for j in range(n_arms) if active[r, j])
        assert mask[r].tolist() == [bool(not active[r, i] or upper[r, i] < best_lower)
                                    for i in range(n_arms)]


def _fresh_masked_bounds(policy):
    """EUCBV's bounds recomputed from its PullStats and rounds, -inf
    outside the active set."""
    stats = policy.stats
    means = stats.means()
    radius = confidence_radius(stats.variances(means), stats.counts,
                               policy._log_conf[policy.m][:, None], policy.rho)
    return [np.where(policy.active, b, -np.inf) for b in (means + radius, means - radius)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=3))
def test_eucbv_masked_bounds_stay_fresh(seed, n_lanes, n_arms, resets):
    # Random updates, with ``resets`` extra round resets of random lanes
    # injected per 10 steps, keep both bounds equal to a fresh masked
    # recompute; far-apart arm means make lanes eliminate and commit.
    rng = np.random.default_rng(seed)
    horizon = 300
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        policy = EucbvPolicy(n_lanes, n_arms, horizon, psi=float(rng.uniform(0.05, 2.0)))
    means = rng.random((n_lanes, n_arms)).round(1)
    for t in range(1, horizon + 1):
        arms = policy.select(t)
        lanes = np.arange(n_lanes)
        rewards = means[lanes, arms] + 0.1 * rng.standard_normal(n_lanes)
        policy.update(t, arms, rewards)
        if t > n_arms and t % 10 < resets:
            rows = np.flatnonzero((rng.random(n_lanes) < 0.5) & (policy.m <= policy.max_rounds))
            policy._advance_round(t, rows)
        if t >= n_arms:
            upper, lower = _fresh_masked_bounds(policy)
            assert np.array_equal(policy._ucb, upper)
            assert np.array_equal(policy._lcb, lower)
            assert policy.active.any(axis=1).all()

@_SETTINGS
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=10 ** 6),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.01, max_value=2.0),
)
def test_confidence_radius_monotonicity(v_hat, pulls, log_term, rho):
    base = confidence_radius(v_hat, pulls, log_term, rho)
    assert confidence_radius(v_hat, pulls + 1, log_term, rho) <= base + 1e-15
    assert confidence_radius(v_hat + 0.1, pulls, log_term, rho) >= base - 1e-15


@_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 32), st.floats(min_value=0, max_value=1))
def test_bernoulli_reward_support(seed, p):
    env = make_environment("bernoulli", [p, 0.5])
    lane = StreamBatch(np.array([oracles.derive_key(seed, 0)], dtype=np.uint64))
    noise = reward_noise(env, lane, 1)[:, 0]
    assert sample_rewards_batch(env, np.array([0]), noise)[0] in (0.0, 1.0)
