"""Replication harness: regret accounting, determinism, aggregation."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eucbv.simulator
import oracles
from eucbv.cli import main
from eucbv.config import preset_spec, preset_testbed
from eucbv.env import make_environment, reward_noise, sample_rewards_batch
from eucbv.policies import POLICY_IDS, BatchPolicy, make_batch_policy
from eucbv.policies.kl import KlUcbPlusPolicy, klucb_index
from eucbv.rng import DOMAIN_POLICY, DOMAIN_REWARDS, StreamBatch
from eucbv.simulator import (
    CHUNK_CAP,
    CHUNK_FLOOR,
    NOISE_BLOCK_STEPS,
    checkpoint_times,
    chunk_width,
    run_batch,
    run_many,
    run_roster,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class _FixedArmPolicy(BatchPolicy):
    """Always pulls one arm, initialization included (test stub)."""

    def __init__(self, arm, n_arms, horizon):
        super().__init__(1, n_arms, horizon)
        self.arm = arm

    def select(self, t):
        return np.full(self.n_runs, self.arm, dtype=np.int64)


class _RoundRobinPolicy(BatchPolicy):
    def _select(self, t):
        return np.full(self.n_runs, (t - 1) % self.n_arms, dtype=np.int64)


def _expt1_env():
    return make_environment("bernoulli", [0.07] * 19 + [0.1])


def _gauss_env():
    return make_environment("gaussian", [0.5] * 19 + [1.0], [0.25] * 20)


def _policy(pid, lanes, n_arms, horizon, seed, params=None):
    return make_batch_policy(pid, len(lanes), n_arms, horizon, params,
                             rng=StreamBatch.for_runs(seed, lanes, DOMAIN_POLICY))


def _run(env, policy, horizon, seed, lanes=(0,)):
    """Replications ``lanes`` as one batch; per-step curves (R, T), pulls."""
    streams = StreamBatch.for_runs(seed, lanes, DOMAIN_REWARDS)
    curves, pulls, survivors = run_batch(env, policy, horizon, streams,
                                         checkpoint_times(horizon, horizon))
    return curves, pulls, survivors


class TestCheckpointTimes:
    def test_short_horizon_keeps_every_step(self):
        assert checkpoint_times(5, 200).tolist() == [1, 2, 3, 4, 5]

    def test_final_step_always_included(self):
        for horizon in (201, 1000, 59999, 60000):
            ts = checkpoint_times(horizon, 200)
            assert ts[-1] == horizon
            assert len(ts) <= 200
            assert (np.diff(ts) > 0).all()


class TestRunOnce:
    """A single replication is a one-lane batch."""

    def test_oracle_policy_zero_regret(self):
        env = _expt1_env()
        curves, _, _ = _run(env, _FixedArmPolicy(19, 20, 1000), 1000, 1)
        assert np.all(curves == 0.0)

    def test_fixed_suboptimal_arm_linear_regret(self):
        env = _expt1_env()
        curves, _, _ = _run(env, _FixedArmPolicy(0, 20, 1000), 1000, 1)
        assert curves[0, -1] == pytest.approx(1000 * 0.03)

    def test_round_robin_closed_form(self):
        # 20000 pulls spread over 20 arms: 19000 pulls on gap-0.03 arms -> 570.
        env = _expt1_env()
        curves, _, _ = _run(env, _RoundRobinPolicy(1, 20, 20000), 20000, 1)
        assert curves[0, -1] == pytest.approx(570.0)

    def test_trace_invariants(self):
        env = _expt1_env()
        curves, pulls, _ = _run(env, _policy("ucb1", [0], env.n_arms, 500, 2), 500, 2)
        curve, pulls = curves[0], pulls[0]
        assert pulls.sum() == 500
        assert (np.diff(curve) >= -1e-12).all()
        assert (curve >= 0).all()
        recomputed = float(env.gaps @ pulls)
        assert abs(curve[-1] - recomputed) < 1e-9

    def test_horizon_smaller_than_arms_rejected(self):
        env = _expt1_env()
        with pytest.raises(ValueError):
            make_batch_policy("ucb1", 1, env.n_arms, 10)


# Horizons and parameters under which the round policies complete rounds.
# On the Gaussian env ucb-improved reaches rounds 2-3 with some lanes
# committed and others part-eliminated, median-elim halves 20 arms to 10,
# and eucbv commits every lane.
_HORIZON = {"ucb-improved": 1200, "median-elim": 3200}
_PARAMS = {"median-elim": {"epsilon": 0.9, "delta": 0.9}}
_ELIMINATING = ("eucbv", "ucb-improved", "median-elim")


class TestBatchEquivalence:
    """Lane position and chunk width never change a replication."""

    @pytest.mark.parametrize("pid", POLICY_IDS)
    def test_run_alone_equals_run_in_batch(self, pid):
        horizon, seed, runs = _HORIZON.get(pid, 400), 77, 8
        lanes = list(range(runs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eucbv: T < K^2.4
            for env in (_expt1_env(), _gauss_env()):
                batch = _policy(pid, lanes, env.n_arms, horizon, seed, _PARAMS.get(pid))
                curves, pulls, survivors = _run(env, batch, horizon, seed, lanes)
                # survivors reads the active mask, which only eliminating
                # policies ever clear
                left = batch.active.sum(axis=1)
                assert np.array_equal(
                    survivors, np.where(left == 1, np.argmax(batch.active, axis=1), -1))
                assert (left >= 1).all()
                if pid not in _ELIMINATING:
                    assert batch.active.all()
                for k in lanes:
                    single = _policy(pid, [k], env.n_arms, horizon, seed, _PARAMS.get(pid))
                    c1, p1, s1 = _run(env, single, horizon, seed, [k])
                    assert np.array_equal(c1[0], curves[k])
                    assert np.array_equal(p1[0], pulls[k])
                    assert s1[0] == survivors[k]

    @pytest.mark.parametrize("pid", POLICY_IDS)
    def test_chunk_width_does_not_change_lanes(self, pid):
        horizon, seed = _HORIZON.get(pid, 400), 78
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for env in (_expt1_env(), _gauss_env()):
                whole = _run(env, _policy(pid, range(8), env.n_arms, horizon, seed,
                                          _PARAMS.get(pid)), horizon, seed, range(8))
                parts = [
                    _run(env, _policy(pid, lanes, env.n_arms, horizon, seed,
                                      _PARAMS.get(pid)), horizon, seed, lanes)
                    for lanes in (range(3), range(3, 8))
                ]
                for i in range(3):
                    assert np.array_equal(np.concatenate([p[i] for p in parts]), whole[i])


class _FullIndexKlUcb(KlUcbPlusPolicy):
    """KL-UCB+ choosing the argmax of every cell's full 30-halving index."""

    def _select(self, t):
        return np.argmax(klucb_index(self.stats.means(), self.stats.counts, t), axis=1)


class TestKlUcbEarlyExit:
    @pytest.mark.parametrize("runs", [1, 50, 100])
    def test_trajectory_equals_full_index_argmax(self, runs):
        # The early-exit selection proves each lane's argmax; the pulls and
        # per-step regret must be those of the full index, at any width.
        env, horizon, seed = _expt1_env(), 2000, 1
        lanes = range(runs)
        got = _run(env, _policy("klucb-plus", lanes, env.n_arms, horizon, seed),
                   horizon, seed, lanes)
        want = _run(env, _FullIndexKlUcb(runs, env.n_arms, horizon), horizon, seed, lanes)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


_DISPATCH_CHECK = """
import numpy as np
from eucbv.env import make_environment
from eucbv.policies.kl import KlUcbPlusPolicy, _bounds, _bracket, klucb_argmax, klucb_index
from eucbv.rng import DOMAIN_REWARDS, StreamBatch
from eucbv.simulator import checkpoint_times, run_batch

class Checked(KlUcbPlusPolicy):
    def _select(self, t):
        means, pulls = self.stats.means(), self.stats.counts
        index = klucb_index(means, pulls, t)
        lower, upper = _bounds(_bracket(means, pulls, t))
        assert np.all(lower <= index.reshape(-1)) and np.all(index.reshape(-1) < upper), t
        choice = klucb_argmax(means, pulls, t)
        assert np.array_equal(choice, np.argmax(index, axis=1)), t
        return choice

env = make_environment("bernoulli", [0.07] * 19 + [0.1])
runs, horizon = 100, 1000
run_batch(env, Checked(runs, env.n_arms, horizon), horizon,
          StreamBatch.for_runs(1, range(runs), DOMAIN_REWARDS), checkpoint_times(horizon))
"""


class TestKlUcbDispatch:
    def test_early_exit_exact_without_avx512_dispatch(self):
        # Turning AVX-512 dispatch off changes the rounding of numpy's log
        # and log1p; the certified bounds assume only a relative error far
        # above an ulp, so every expt1 choice must still be the full index's.
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, env=env, timeout=60)
        if probe.returncode != 0:
            pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES: {probe.stderr.strip()}")
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_CHECK], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr


class _ScipyGaussBayesUcb(BatchPolicy):
    """Gauss-prior Bayes-UCB scoring the raw sums and counts every step,
    with ``scipy.special.ndtri`` for the normal quantile."""

    def _select(self, t):
        from scipy.special import ndtri

        precision = 1.0 + self.stats.counts
        q = ndtri(1.0 - 1.0 / (t * math.log(self.horizon)))
        return np.argmax(self.stats.sums / precision + q / np.sqrt(precision), axis=1)


class TestGaussBayesUcb:
    @pytest.mark.parametrize("runs", [1, 50, 100])
    def test_trajectory_equals_scipy_reference(self, runs):
        # The in-repo ndtri and the per-cell posterior cache must give the
        # pulls and per-step regret of scoring from scratch with scipy.
        env, horizon, seed = preset_testbed("expt3")[0], 2000, 1
        lanes = range(runs)
        got = _run(env, _policy("bayes-ucb", lanes, env.n_arms, horizon, seed,
                                {"prior": "gauss"}), horizon, seed, lanes)
        want = _run(env, _ScipyGaussBayesUcb(runs, env.n_arms, horizon), horizon, seed, lanes)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestVarianceAwareCaches:
    @pytest.mark.parametrize("runs", [1, 50, 100])
    @pytest.mark.parametrize("pid,reference", [("eucbv", oracles.UnmaskedEucbv),
                                               ("ucbv", oracles.RecomputeUcbv)])
    def test_trajectory_equals_recompute_reference(self, pid, reference, runs):
        # EUCBV's masked bounds and deadline scalar, and UCB-V's per-cell
        # terms, must give the pulls, per-step regret and survivors of
        # recomputing every cell at every step.
        env, horizon, seed = preset_testbed("expt3")[0], 2000, 1
        lanes = range(runs)
        ref = reference(runs, env.n_arms, horizon)
        got = _run(env, _policy(pid, lanes, env.n_arms, horizon, seed), horizon, seed, lanes)
        want = _run(env, ref, horizon, seed, lanes)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if pid == "eucbv":  # every lane reset rounds and eliminated arms
            assert (ref.m > 0).all() and (ref.active.sum(axis=1) < env.n_arms).all()


class TestBlockNoise:
    """run_batch's block-drawn reward noise equals drawing it step by step."""

    # Blocks of 1 and 3 steps put a block boundary at every step or every
    # third, so the step numbering inside and across blocks is pinned.
    @pytest.mark.parametrize("block,horizon", [
        *(pytest.param(NOISE_BLOCK_STEPS, h, id=str(h))
          for h in (NOISE_BLOCK_STEPS - 28, NOISE_BLOCK_STEPS, 2 * NOISE_BLOCK_STEPS + 1)),
        pytest.param(1, 41, id="block1-41"),
        pytest.param(3, 41, id="block3-41"),
    ])
    @pytest.mark.parametrize("env", [_expt1_env(), _gauss_env()], ids=["bern", "gauss"])
    def test_run_batch_equals_per_step_loop(self, env, block, horizon, monkeypatch):
        monkeypatch.setattr("eucbv.simulator.NOISE_BLOCK_STEPS", block)
        seed, lanes = 41, range(4)
        streams = StreamBatch.for_runs(seed, lanes, DOMAIN_REWARDS)
        curves, pulls, _ = run_batch(env, _policy("ucbv", lanes, env.n_arms, horizon, seed),
                                     horizon, streams, checkpoint_times(horizon, horizon))
        policy = _policy("ucbv", lanes, env.n_arms, horizon, seed)
        by_step = StreamBatch.for_runs(seed, lanes, DOMAIN_REWARDS)
        regret = np.zeros(len(lanes))
        for t in range(1, horizon + 1):
            arms = policy.select(t)
            noise = reward_noise(env, by_step, 1)[:, 0]
            policy.update(t, arms, sample_rewards_batch(env, arms, noise))
            regret += env.gaps[arms]
            assert np.array_equal(curves[:, t - 1], regret)
        assert np.array_equal(pulls, policy.pull_counts())
        per_reward = 1 if env.kind == "bernoulli" else 2
        assert streams.counters.tolist() == [per_reward * horizon] * len(lanes)
        assert np.array_equal(streams.counters, by_step.counters)


class TestRunMany:
    def test_single_run_mean_equals_trace(self):
        env = _expt1_env()
        agg = run_many(env, ("ucb1", None), 300, 1, 5)
        curves, _, _ = _run(env, _policy("ucb1", [0], env.n_arms, 300, 5), 300, 5)
        ck = agg.checkpoint_ts
        assert np.array_equal(agg.mean_regret, curves[0, ck - 1])
        assert np.all(agg.stderr_regret == 0.0)

    def test_forced_identical_seeds_zero_stderr(self):
        # run the same replication twice: two lanes with identical streams
        env = _expt1_env()
        policy = _policy("ucb1", [0, 0], env.n_arms, 200, 9)
        stacked, _, _ = _run(env, policy, 200, 9, [0, 0])
        assert np.array_equal(stacked[0], stacked[1])
        assert stacked.std(axis=0, ddof=1).max() == 0.0

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_many(_expt1_env(), ("ucb1", None), 100, 0, 1)

    def test_threads_do_not_change_aggregates(self):
        env = _expt1_env()
        serial = run_many(env, ("moss", None), 600, 120, 11, threads=1)
        parallel = run_many(env, ("moss", None), 600, 120, 11, threads=2)
        assert np.array_equal(serial.mean_regret, parallel.mean_regret)
        assert np.array_equal(serial.stderr_regret, parallel.stderr_regret)

    def test_whole_run_chunk_aggregates_like_merged_chunks(self):
        # threads=1: one 100-lane chunk aggregates its runs in the worker;
        # threads=2: two 50-lane chunks are merged and aggregated here
        assert chunk_width(100, 1) == 100 and chunk_width(100, 2) == 50
        env = _expt1_env()
        whole, merged = (run_many(env, ("ucb1", None), 300, 100, 4, threads=threads)
                         for threads in (1, 2))
        assert whole.run_count == merged.run_count == 100
        for field in ("checkpoint_ts", "mean_regret", "stderr_regret"):
            assert getattr(whole, field).tobytes() == getattr(merged, field).tobytes()

    def test_chunk_width_follows_runs_per_thread(self):
        assert chunk_width(100, 1) == 100 == CHUNK_CAP
        assert chunk_width(100, 2) == 50 == CHUNK_FLOOR  # a lone policy at --threads 2
        assert chunk_width(60, 8) == 50                   # still 2 chunks
        assert chunk_width(7, 1) == 50 and chunk_width(1000, 1) == 100
        assert chunk_width(180, 2) == 90 and chunk_width(180, 3) == 60

    # 180 runs make chunks of 100 + 80, 90 + 90 and 60 * 3 lanes.
    @pytest.mark.parametrize("pid", POLICY_IDS)
    def test_thread_counts_give_identical_bytes(self, pid):
        runs, horizon, seed = 180, _HORIZON.get(pid, 300), 12
        assert len({chunk_width(runs, threads) for threads in (1, 2, 3)}) == 3
        env = _expt1_env() if pid in ("klucb-plus", "ts-beta", "dmed") else _gauss_env()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aggs = [run_many(env, (pid, _PARAMS.get(pid)), horizon, runs, seed,
                             threads=threads, n_checkpoints=30)
                    for threads in (1, 2, 3)]
        for agg in aggs[1:]:
            assert agg.mean_regret.tobytes() == aggs[0].mean_regret.tobytes()
            assert agg.stderr_regret.tobytes() == aggs[0].stderr_regret.tobytes()

    def test_aggregate_matches_manual_reduction(self):
        env = _expt1_env()
        runs, horizon, seed = 7, 250, 21
        agg = run_many(env, ("ucbv", None), horizon, runs, seed)
        ck = agg.checkpoint_ts
        curves = []
        for k in range(runs):
            policy = _policy("ucbv", [k], env.n_arms, horizon, seed)
            curve, _, _ = _run(env, policy, horizon, seed, [k])
            curves.append(curve[0, ck - 1])
        stacked = np.stack(curves)
        assert np.array_equal(agg.mean_regret, stacked.mean(axis=0))
        assert np.allclose(agg.stderr_regret,
                           stacked.std(axis=0, ddof=1) / np.sqrt(runs))

    def test_mean_curve_non_decreasing(self):
        env = _expt1_env()
        agg = run_many(env, ("ucb1", None), 500, 5, 31)
        assert (np.diff(agg.mean_regret) >= -1e-12).all()


def _expt1_roster(runs, horizon):
    spec = preset_spec("expt1", runs=runs, horizon=horizon)
    return spec.environment(), list(spec.policies)


class _CountingPool(eucbv.simulator.ProcessPoolExecutor):
    """Stand-in for the simulator's ProcessPoolExecutor that tallies pools
    and the workers of the pools not yet shut down."""

    sizes = []
    contexts = []
    live = 0
    peak = 0

    def __init__(self, max_workers, **kwargs):
        super().__init__(max_workers=max_workers, **kwargs)
        cls = type(self)
        cls.sizes.append(max_workers)
        cls.contexts.append(kwargs.get("mp_context"))
        cls.live += max_workers
        cls.peak = max(cls.peak, cls.live)

    def shutdown(self, *args, **kwargs):
        type(self).live -= self._max_workers
        super().shutdown(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    pool = type("Pool", (_CountingPool,),
                {"sizes": [], "contexts": [], "live": 0, "peak": 0})
    monkeypatch.setattr(eucbv.simulator, "ProcessPoolExecutor", pool)
    return pool


class TestRunRoster:
    """Policies run side by side on the --threads budget; the aggregates and
    the progress order are those of one policy at a time."""

    RUNS, HORIZON = 180, 200

    @pytest.fixture(scope="class")
    def one_at_a_time(self):
        env, roster = _expt1_roster(self.RUNS, self.HORIZON)
        return [run_many(env, policy, self.HORIZON, self.RUNS, 12, threads=1,
                         n_checkpoints=30) for policy in roster]

    # 180 runs need 2 full-width workers per policy: at threads 2 and 3 one
    # policy runs at a time, at 4 two run side by side on 2 workers each
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_roster_equals_policy_by_policy(self, one_at_a_time, threads):
        env, roster = _expt1_roster(self.RUNS, self.HORIZON)
        aggs = run_roster(env, roster, self.HORIZON, self.RUNS, 12, threads=threads,
                          n_checkpoints=30)
        assert [a.policy_id for a in aggs] == [pid for pid, _ in roster]
        for agg, ref in zip(aggs, one_at_a_time):
            assert agg.mean_regret.tobytes() == ref.mean_regret.tobytes()
            assert agg.stderr_regret.tobytes() == ref.stderr_regret.tobytes()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_pool_per_policy_within_the_budget(self, counting_pool, threads):
        env, roster = _expt1_roster(100, 60)
        run_roster(env, roster, 60, 100, 3, threads=threads, n_checkpoints=3)
        # 8 policies: `threads` single-worker pools at a time, 100 lanes each
        assert counting_pool.sizes == [1] * len(roster)
        assert counting_pool.peak == threads and counting_pool.live == 0
        assert {ctx.get_start_method() for ctx in counting_pool.contexts} == {"fork"}

    def test_many_chunks_keep_their_workers(self, counting_pool):
        # 400 runs are four 100-lane chunks per policy: two 4-worker pools at
        # a time, not eight single-worker pools running four chunks each
        env, roster = _expt1_roster(400, 30)
        run_roster(env, roster, 30, 400, 3, threads=8, n_checkpoints=2)
        assert counting_pool.sizes == [4] * len(roster) and chunk_width(400, 4) == 100
        assert counting_pool.peak == 8 and counting_pool.live == 0

    def test_lone_policy_splits_its_runs(self, counting_pool):
        run_many(_expt1_env(), ("ucb1", None), 60, 100, 3, threads=2, n_checkpoints=3)
        assert counting_pool.sizes == [2] and chunk_width(100, 2) == 50
        assert counting_pool.live == 0

    def test_lone_chunk_runs_in_process(self, counting_pool):
        agg = run_many(_expt1_env(), ("ucb1", None), 60, 20, 3, threads=2,
                       n_checkpoints=3)
        ref = run_many(_expt1_env(), ("ucb1", None), 60, 20, 3, threads=1,
                       n_checkpoints=3)
        assert counting_pool.sizes == []
        assert agg.mean_regret.tobytes() == ref.mean_regret.tobytes()

    def test_progress_lines_in_roster_order(self, tmp_path, capsys):
        # ts-beta's pool outlasts the pools of the fast policies after it;
        # their lines wait for its line
        config = tmp_path / "order.ini"
        config.write_text("[experiment]\nname = order\nhorizon = 1500\nruns = 100\n"
                          "checkpoints = 3\n\n[environment]\npreset = expt1\n\n"
                          "[policy.ts-beta]\n\n[policy.ucb1]\n\n[policy.moss]\n\n"
                          "[policy.ocucb]\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--threads", "2",
                     "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in lines] == ["ts-beta:", "ucb1:", "moss:",
                                                        "ocucb:"]

    def test_failing_chunk_stops_every_pool(self, tmp_path):
        # ucb1's chunk raises while ts-beta's pool is busy; moss never starts
        config = tmp_path / "fail.ini"
        config.write_text("[experiment]\nhorizon = 1000\nruns = 100\ncheckpoints = 3\n\n"
                          "[environment]\npreset = expt1\n\n[policy.ts-beta]\n\n"
                          "[policy.ucb1]\n\n[policy.moss]\n", encoding="utf-8")
        out = tmp_path / "out"
        code = f"""
import multiprocessing
import eucbv.simulator as simulator
from eucbv.cli import main

real_chunk, real_pool = simulator._simulate_chunk, simulator.ProcessPoolExecutor
pools = []

def failing_chunk(args):
    if args[1] == "ucb1":
        raise ValueError("chunk failed")
    return real_chunk(args)

def counted_pool(**kwargs):
    pools.append(kwargs)
    return real_pool(**kwargs)

simulator._simulate_chunk = failing_chunk
simulator.ProcessPoolExecutor = counted_pool
assert main(["run", "--config", {str(config)!r}, "--threads", "2",
             "--out", {str(out)!r}]) == 3
assert len(pools) == 2, pools
assert multiprocessing.active_children() == []
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["error: chunk failed"]
        assert not list(out.glob("*.csv"))
