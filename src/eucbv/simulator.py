"""Policy-vs-environment driver and replication harness.

Regret accounting is pseudo-regret: after every pull of arm i the cumulative
regret grows by the true gap of arm i, so a trace depends only on pull
decisions and true means (never on realized rewards directly).

Replications are bit-reproducible and partition-independent: run k always
consumes the streams derived from (master_seed, k), whether executed alone
(a one-lane batch), inside a batch, serially, or across worker processes.
No computation reads across lanes, so a lane's trajectory never depends on
its batch mates or on the batch width.  run_roster therefore sizes its
chunks from the work and merges results by run index, so the aggregate bytes
never depend on the degree of parallelism.  ``--threads N`` is a budget of
at most N worker processes at once.  A policy needs ceil(runs / CHUNK_CAP)
workers to run its full-width chunks side by side, so up to
N // that many policies (at least one, at most all) run at once, each in its
own process pool of N // slots workers, and each policy's chunks are
ceil(runs / workers) lanes, clamped to [CHUNK_FLOOR, CHUNK_CAP].  A roster
of 8 policies with 100 runs at N = 2 thus runs two single-worker pools at a
time with one 100-lane chunk each; with 400 runs at N = 8, two 4-worker
pools with four 100-lane chunks each.  A lone policy splits its 100 runs at
N = 2 into two 50-lane chunks.  The per-call cost of numpy makes the wide
chunk the cheaper one per lane-step.  When no two chunks could run at once
(one slot, one chunk) everything runs in this process.  A chunk that holds
all of a policy's runs returns the policy's aggregate, computed where the
curves are, so a pool worker sends back three checkpoint rows, not a
(runs, C) array; otherwise the chunks' curves are merged by run index and
aggregated here, the same reduction over the same array.

run_batch draws each lane's reward noise (``reward_noise``) in blocks of
NOISE_BLOCK_STEPS steps, the last one cut at the horizon, and turns one step
of it at a time into rewards (``sample_rewards_batch``).  Each draw of a
counter-based stream depends only on (key, j), so the values, and every
lane's final counter, equal those of per-step draws.  Policies may keep
per-cell caches (MOSS and OCUCB indices, EUCBV upper and lower bounds masked
to -inf outside the active set, UCB-V's mean, 2v and 2z, TS-Gauss posterior
means and sds, TS-Beta's Marsaglia-Tsang constants d and c of its 2K Beta
shapes); they evaluate the same expressions on the same inputs, so they are
exact by construction.

Three policies skip work that cannot change a result.  Selection reads
only each lane's argmax, and two of them skip the work that cannot change
it.  TS-Gauss draws its K posterior samples per lane with
``StreamBatch.normal_argmax``: every lane's policy counter advances by 2K as
a full normal block would, but only the samples that can be the lane's
maximum are computed.  KL-UCB+ selects with ``klucb_argmax``: it bounds
every cell's index from a few Newton steps, certified against the
bisection's own float test, and bisects only the cells whose upper bound
reaches the lane's best lower bound, folding cells whose bisection state
repeats a lower column's, until every lane has one cell left; most steps
bisect nothing.  Both choices are those of the full computation, ties
included, and both read only the lane's own row.  TS-Beta computes every
sample, but a cell that has accepted needs none of its later trials: after
the first Marsaglia-Tsang trial, ``StreamBatch.gamma_block`` computes only
the rejected cells, while each lane's counter advances 3 * 2K per trial as
whole-row trials would, so its samples are those of whole-row trials.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .env import Environment, reward_noise, sample_rewards_batch
from .policies import make_batch_policy
from .rng import DOMAIN_POLICY, DOMAIN_REWARDS, StreamBatch

DEFAULT_CHECKPOINTS = 200
# Lanes per chunk: ceil(runs / threads), clamped.  Each numpy call has a
# fixed cost, so wider chunks cost less per lane-step; the floor keeps every
# chunk at least as wide as the old fixed 50.  The cap is measured: on the
# K = 100 testbeds 200-lane chunks cost about 4% more per lane-step than
# 100-lane ones (TS-Gauss's R x K draws outgrow the cache), on K = 20 15% less.
CHUNK_FLOOR = 50
CHUNK_CAP = 100
NOISE_BLOCK_STEPS = 128  # reward-noise steps fetched per lane at once

# Pool workers are forked, so they start without re-importing the package,
# whatever the platform's default start method (forkserver on Linux from
# Python 3.14).  A pool started while another is live forks beside that
# pool's helper threads, which Python 3.12+ reports with a
# DeprecationWarning.  Each worker uses only its own pool's queues, and
# multiprocessing re-creates the locks of inherited queues in every child.
_FORK = (multiprocessing.get_context("fork")
         if "fork" in multiprocessing.get_all_start_methods() else None)


@dataclass(frozen=True)
class AggregateCurve:
    """Across-run mean/stderr of the regret curve at checkpoints."""

    policy_id: str
    run_count: int
    checkpoint_ts: np.ndarray   # (C,) timesteps, last one == T
    mean_regret: np.ndarray     # (C,)
    stderr_regret: np.ndarray   # (C,)

    @property
    def final_mean(self) -> float:
        return float(self.mean_regret[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr_regret[-1])


def checkpoint_times(horizon: int, n_checkpoints: int = DEFAULT_CHECKPOINTS) -> np.ndarray:
    """Evenly spaced integer checkpoints in [1, T]; T is always included."""
    if n_checkpoints < 1:
        raise ValueError("need at least one checkpoint")
    if horizon <= n_checkpoints:
        return np.arange(1, horizon + 1, dtype=np.int64)
    ts = (np.arange(1, n_checkpoints + 1, dtype=np.int64) * horizon) // n_checkpoints
    return np.unique(ts)


def run_batch(env: Environment, policy, horizon: int, reward_streams: StreamBatch,
              checkpoint_ts: np.ndarray):
    """Drive a batched policy; returns (curves (R,C), pulls (R,K), survivors)."""
    gaps = env.gaps
    n_runs = len(reward_streams)
    curves = np.empty((n_runs, len(checkpoint_ts)), dtype=np.float64)
    regret = np.zeros(n_runs, dtype=np.float64)
    ck = 0
    next_ck = int(checkpoint_ts[0])
    for lo in range(0, horizon, NOISE_BLOCK_STEPS):
        steps = min(NOISE_BLOCK_STEPS, horizon - lo)
        block = np.ascontiguousarray(reward_noise(env, reward_streams, steps).T)
        for t, noise in enumerate(block, lo + 1):
            arms = policy.select(t)
            rewards = sample_rewards_batch(env, arms, noise)
            policy.update(t, arms, rewards)
            regret += gaps[arms]
            if t == next_ck:
                curves[:, ck] = regret
                ck += 1
                next_ck = int(checkpoint_ts[ck]) if ck < len(checkpoint_ts) else 0
    return curves, policy.pull_counts(), policy.survivors()


def chunk_width(runs: int, threads: int) -> int:
    """Lanes per chunk for ``runs`` replications on ``threads`` workers."""
    return min(CHUNK_CAP, max(CHUNK_FLOOR, -(-runs // max(threads, 1))))


def _simulate_chunk(args):
    """Runs lo..hi-1 of one policy: (lo, their (R, C) curves), or (lo, the
    policy's aggregate) when the chunk holds all ``runs`` of them."""
    env, policy_id, params, horizon, master_seed, lo, hi, ck, runs = args
    run_indices = range(lo, hi)
    reward_streams = StreamBatch.for_runs(master_seed, run_indices, DOMAIN_REWARDS)
    policy_streams = StreamBatch.for_runs(master_seed, run_indices, DOMAIN_POLICY)
    policy = make_batch_policy(policy_id, hi - lo, env.n_arms, horizon,
                               params, rng=policy_streams)
    curves = run_batch(env, policy, horizon, reward_streams, ck)[0]
    del policy   # free its state before the aggregate's temporaries
    return lo, _aggregate(policy_id, curves, ck) if hi - lo == runs else curves


def run_roster(env: Environment, policies, horizon: int, runs: int, master_seed: int, *,
               threads: int = 1, n_checkpoints: int = DEFAULT_CHECKPOINTS,
               progress=None) -> list:
    """Aggregate ``runs`` independent replications of each policy, in roster order.

    ``policies`` holds (id, params) pairs; params may be None.  Replication
    k of every policy uses the reward and policy streams derived from
    (master_seed, k), so the aggregates are invariant to ``threads``.

    At ``threads`` 1 every chunk runs in this process.  Above 1, up to
    ``slots`` policies run at once, each in its own process pool of
    ``threads // slots`` workers; ``slots`` is as many policies as the
    budget holds at ceil(runs / CHUNK_CAP) workers each, at least one and
    at most all.  A single slot with a single chunk also runs in this
    process, as nothing would run beside it.  When a pool's chunks
    are done it is shut down and the next policy's pool starts, in roster
    order.  If a chunk raises, every live pool is shut down and its queued
    chunks are cancelled before the error propagates.

    ``progress(aggregate, seconds)``, if given, is called once per policy in
    roster order, as soon as that policy and every earlier one are done;
    ``seconds`` is the wall time from the policy's start to its aggregate.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ck = checkpoint_times(horizon, n_checkpoints)
    slots = max(1, min(len(policies), threads // -(-runs // CHUNK_CAP)))
    workers = max(1, threads // slots)
    width = chunk_width(runs, workers)
    spans = [(lo, min(lo + width, runs)) for lo in range(0, runs, width)]
    done = [None] * len(policies)   # (aggregate, seconds) per finished policy
    reported = 0

    def chunks(i):
        policy_id, params = policies[i]
        return [(env, policy_id, params, horizon, master_seed, lo, hi, ck, runs)
                for lo, hi in spans]

    def finish(i, results, start):
        nonlocal reported
        if len(spans) == 1:   # the chunk aggregated its runs itself
            [(_, aggregate)] = results
        else:
            curves = np.empty((runs, len(ck)), dtype=np.float64)
            for lo, chunk_curves in results:
                curves[lo:lo + chunk_curves.shape[0]] = chunk_curves
            aggregate = _aggregate(policies[i][0], curves, ck)
        done[i] = aggregate, time.perf_counter() - start
        while reported < len(done) and done[reported] is not None:
            if progress is not None:
                progress(*done[reported])
            reported += 1

    if threads <= 1 or (slots == 1 and len(spans) == 1):
        for i in range(len(policies)):
            start = time.perf_counter()
            finish(i, map(_simulate_chunk, chunks(i)), start)
        return [agg for agg, _ in done]

    pending = deque(range(len(policies)))
    running = {}   # policy index -> (its pool, chunk results so far, start time)
    live = {}      # future of a submitted chunk -> policy index
    try:
        while pending or live:
            while pending and len(running) < slots:
                i = pending.popleft()
                pool = ProcessPoolExecutor(max_workers=min(workers, len(spans)),
                                           mp_context=_FORK)
                running[i] = pool, [], time.perf_counter()
                for task in chunks(i):
                    live[pool.submit(_simulate_chunk, task)] = i
            finished, _ = wait(live, return_when=FIRST_COMPLETED)
            for future in finished:
                i = live.pop(future)
                pool, results, start = running[i]
                results.append(future.result())
                if len(results) == len(spans):
                    del running[i]
                    pool.shutdown()
                    finish(i, results, start)
    except BaseException:
        for pool, _, _ in running.values():
            pool.shutdown(cancel_futures=True)
        raise
    return [agg for agg, _ in done]


def run_many(env: Environment, policy, horizon: int, runs: int, master_seed: int, *,
             threads: int = 1,
             n_checkpoints: int = DEFAULT_CHECKPOINTS) -> AggregateCurve:
    """Aggregate ``runs`` replications of one (id, params) policy: the
    one-policy roster of ``run_roster``."""
    return run_roster(env, [policy], horizon, runs, master_seed, threads=threads,
                      n_checkpoints=n_checkpoints)[0]


def _aggregate(policy_id: str, curves: np.ndarray, ck: np.ndarray) -> AggregateCurve:
    runs = curves.shape[0]
    mean = curves.mean(axis=0)
    if runs > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(runs)
    else:
        stderr = np.zeros_like(mean)
    return AggregateCurve(policy_id, runs, ck, mean, stderr)
