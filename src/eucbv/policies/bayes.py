"""Posterior-sampling and posterior-quantile baselines.

TS-Beta     Beta(1, 1) prior over {0, 1} rewards; a non-binary reward is
            Bernoulli-rounded by one coin flip with probability equal to the
            reward clamped to [0, 1] (binary rewards consume no flip).
TS-Gauss    N(0, 1) prior with unit observation noise: after z pulls with
            reward sum S the posterior is N(S / (1 + z), 1 / (1 + z)).  The
            posterior mean and sd are kept per cell and refreshed for the
            pulled cells; a step's choice is the argmax of one normal per
            arm, drawn by ``StreamBatch.normal_argmax``, which counts all
            2K uniforms per lane but finishes (the cos half of Box-Muller)
            only the samples that can be the lane's largest, about 15 of
            K = 100 on expt3.
Bayes-UCB   posterior quantile at level 1 - 1/(t ln T); prior "beta" uses the
            Beta posterior over rewards accumulated clamped to [0, 1], prior
            "gauss" uses the same Gaussian posterior as TS-Gauss.

TS policies consume their own random stream; Bayes-UCB is deterministic.

Bayes-UCB's quantiles come from ``scipy.special`` (``betaincinv``, ``ndtri``),
the package's only scipy use.  It is imported on first use, by
``BayesUcbPolicy.__init__`` or ``bayes_ucb_index``, so a roster without
Bayes-UCB never loads it.  Config validation builds every roster policy
before a run, so a run that has Bayes-UCB imports scipy in the parent
process and its worker processes inherit the module.  Handed straight to
``run_many(threads > 1)``, a Bayes-UCB policy imports it once per worker.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .base import BatchPolicy


@functools.cache
def _special():
    """``scipy.special``, imported on the first call."""
    import scipy.special

    return scipy.special


def bayes_ucb_index(reward_sum, pulls, t, horizon, prior="beta"):
    """Posterior quantile at level 1 - 1/(t ln T); scalar or array inputs.

    For prior "beta" ``reward_sum`` is the clamped-reward (success) count.
    """
    special = _special()
    level = 1.0 - 1.0 / (t * math.log(horizon))
    if prior == "beta":
        return special.betaincinv(reward_sum + 1.0, pulls - reward_sum + 1.0, level)
    precision = 1.0 + pulls
    return reward_sum / precision + special.ndtri(level) / np.sqrt(precision)


class TsBetaPolicy(BatchPolicy):
    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        if rng is None:
            raise ValueError("ts-beta needs a policy random stream")
        self.successes = np.zeros((n_runs, n_arms), dtype=np.float64)

    def _select(self, t):
        failures = self.stats.counts - self.successes
        samples = self.rng.beta_block(self.successes + 1.0, failures + 1.0)
        return np.argmax(samples, axis=1)

    def _after_update(self, t, cells, rewards):
        binary = (rewards == 0.0) | (rewards == 1.0)
        outcomes = rewards.copy()
        lanes = np.nonzero(~binary)[0]
        if lanes.size:
            u = self.rng.uniform_lanes(lanes)
            outcomes[lanes] = (u < np.clip(rewards[lanes], 0.0, 1.0)).astype(np.float64)
        np.put(self.successes, cells, np.take(self.successes, cells) + outcomes)


class TsGaussPolicy(BatchPolicy):
    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        if rng is None:
            raise ValueError("ts-gauss needs a policy random stream")
        # Per-cell posterior mean and sd, kept current as MOSS keeps its
        # index: an update refreshes the pulled cells.  A cell never pulled
        # holds the prior N(0, 1), which is what sums/(1+z) and 1/sqrt(1+z)
        # give at z = 0.
        self._post_mean = np.zeros((n_runs, n_arms))
        self._post_sd = np.ones((n_runs, n_arms))

    def _after_update(self, t, cells, rewards):
        precision = 1.0 + np.take(self.stats.counts, cells)
        np.put(self._post_mean, cells, np.take(self.stats.sums, cells) / precision)
        np.put(self._post_sd, cells, 1.0 / np.sqrt(precision))

    def _select(self, t):
        return self.rng.normal_argmax(self._post_mean, self._post_sd)


class BayesUcbPolicy(BatchPolicy):
    def __init__(self, n_runs, n_arms, horizon, rng=None, prior: str = "beta"):
        super().__init__(n_runs, n_arms, horizon, rng)
        if prior not in ("beta", "gauss"):
            raise ValueError(f"bayes-ucb prior must be 'beta' or 'gauss', got {prior!r}")
        _special()  # import while the policy is built, not at its first step
        self.prior = prior
        if prior == "beta":
            self.successes = np.zeros((n_runs, n_arms), dtype=np.float64)

    def _select(self, t):
        reward_sum = self.successes if self.prior == "beta" else self.stats.sums
        scores = bayes_ucb_index(reward_sum, self.stats.counts, t, self.horizon, self.prior)
        return np.argmax(scores, axis=1)

    def _after_update(self, t, cells, rewards):
        if self.prior == "beta":
            successes = np.take(self.successes, cells) + np.clip(rewards, 0.0, 1.0)
            np.put(self.successes, cells, successes)
