"""Policy-vs-environment driver and replication harness.

Regret accounting is pseudo-regret: after every pull of arm i the cumulative
regret grows by the true gap of arm i, so a trace depends only on pull
decisions and true means (never on realized rewards directly).

Replications are bit-reproducible and partition-independent: run k always
consumes the streams derived from (master_seed, k), whether executed alone
(a one-lane batch), inside a batch, serially, or across worker processes.
No computation reads across lanes, so a lane's trajectory never depends on
its batch mates or on the batch width.  run_many therefore sizes its chunks
from the work, ceil(runs / threads) lanes clamped to [CHUNK_FLOOR,
CHUNK_CAP], and merges results by run index, so the aggregate bytes never
depend on the degree of parallelism.

run_batch draws each lane's reward noise (``reward_noise``) in blocks of
NOISE_BLOCK_STEPS steps, the last one cut at the horizon, and turns one step
of it at a time into rewards (``sample_rewards_batch``).  Each draw of a
counter-based stream depends only on (key, j), so the values, and every
lane's final counter, equal those of per-step draws.  Policies may keep
per-cell caches (MOSS and OCUCB indices, EUCBV upper and lower bounds,
TS-Gauss posterior means and sds, TS-Beta's Marsaglia-Tsang constants d and
c of its 2K Beta shapes); they evaluate the same expressions on the same
inputs, so they are exact by construction.

Three policies skip work that cannot change a result.  Selection reads
only each lane's argmax, and two of them skip the work that cannot change
it.  TS-Gauss draws its K posterior samples per lane with
``StreamBatch.normal_argmax``: every lane's policy counter advances by 2K as
a full normal block would, but only the samples that can be the lane's
maximum are computed.  KL-UCB+ selects with ``klucb_argmax``: it bisects
only the cells whose bracket can still reach the lane's best, folds cells
whose bisection state repeats a lower column's, and stops once every lane
has one cell left.  Both choices are those of the full computation, ties
included, and both read only the lane's own row.  TS-Beta computes every
sample, but a cell that has accepted needs none of its later trials: after
the first Marsaglia-Tsang trial, ``StreamBatch.gamma_block`` computes only
the rejected cells, while each lane's counter advances 3 * 2K per trial as
whole-row trials would, so its samples are those of whole-row trials.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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
    env, policy_id, params, horizon, master_seed, lo, hi, ck = args
    run_indices = range(lo, hi)
    reward_streams = StreamBatch.for_runs(master_seed, run_indices, DOMAIN_REWARDS)
    policy_streams = StreamBatch.for_runs(master_seed, run_indices, DOMAIN_POLICY)
    policy = make_batch_policy(policy_id, hi - lo, env.n_arms, horizon,
                               params, rng=policy_streams)
    return lo, run_batch(env, policy, horizon, reward_streams, ck)[0]


def run_many(env: Environment, policy, horizon: int, runs: int, master_seed: int, *,
             threads: int = 1,
             n_checkpoints: int = DEFAULT_CHECKPOINTS) -> AggregateCurve:
    """Aggregate ``runs`` independent replications of one policy.

    ``policy`` is an (id, params) pair; params may be None.
    Replication k uses the reward and policy streams derived from
    (master_seed, k).  The aggregate is invariant to ``threads``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ck = checkpoint_times(horizon, n_checkpoints)
    policy_id, params = policy
    width = chunk_width(runs, threads)
    tasks = [
        (env, policy_id, params, horizon, master_seed, lo, min(lo + width, runs), ck)
        for lo in range(0, runs, width)
    ]
    curves = np.empty((runs, len(ck)), dtype=np.float64)
    if threads <= 1 or len(tasks) == 1:
        results = map(_simulate_chunk, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=min(threads, len(tasks)))
        try:
            results = list(pool.map(_simulate_chunk, tasks))
        finally:
            pool.shutdown()
    for lo, chunk_curves in results:
        curves[lo:lo + chunk_curves.shape[0]] = chunk_curves
    return _aggregate(policy_id, curves, ck)


def _aggregate(policy_id: str, curves: np.ndarray, ck: np.ndarray) -> AggregateCurve:
    runs = curves.shape[0]
    mean = curves.mean(axis=0)
    if runs > 1:
        stderr = curves.std(axis=0, ddof=1) / np.sqrt(runs)
    else:
        stderr = np.zeros_like(mean)
    return AggregateCurve(policy_id, runs, ck, mean, stderr)
