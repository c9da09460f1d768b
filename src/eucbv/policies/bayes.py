"""Posterior-sampling and posterior-quantile baselines.

TS-Beta     Beta(1, 1) prior over {0, 1} rewards; a non-binary reward is
            Bernoulli-rounded by one coin flip with probability equal to the
            reward clamped to [0, 1] (binary rewards consume no flip).  The
            Marsaglia-Tsang constants (``rng.gamma_constants``) of each
            lane's 2K shapes [successes + 1 | failures + 1] are kept and
            refreshed for the pulled arm's two cells, looked up in a table
            over the integer shapes 1..n that doubles as the shapes grow
            (after step t they are at most t + 1); a step's sample is one
            ``StreamBatch.beta_block`` on them, whose gamma trials after
            the first compute only the rejected cells (about 1% on expt1).
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
            "gauss" uses the same Gaussian posterior as TS-Gauss, whose mean
            and sqrt(1 + z) it keeps per cell, so a step computes one
            standard-normal quantile and ``mean + q / sqrt(1 + z)``.

TS policies consume their own random stream; Bayes-UCB is deterministic.

The Gaussian quantile comes from ``ndtri``, a port of Cephes' ndtri (the
algorithm behind ``scipy.special.ndtri``) that returns the same float.  The
Beta quantile comes from ``scipy.special.betaincinv``, the package's only
scipy use, which makes scipy an optional dependency (the ``beta`` extra).
scipy is imported on first use, by a beta-prior
``BayesUcbPolicy.__init__`` or ``bayes_ucb_index``, so a roster without a
beta-prior Bayes-UCB (every preset) never loads it.  Config validation
builds every roster policy before a run, so a run that has one imports
scipy in the parent process and its worker processes inherit the module.
Handed straight to ``run_many(threads > 1)``, a beta-prior Bayes-UCB policy
imports it once per worker.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..rng import gamma_constants
from .base import BatchPolicy


_PRIORS = ("beta", "gauss")

# Cephes ndtri: the standard-normal quantile, as a rational approximation in
# three ranges of y.  Each polynomial's coefficients run from the highest
# power down.  Cephes omits the leading 1 of each Q (p1evl starts from
# x + c); 1.0 * x is exact, so writing the 1 here gives the same floats.
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# exp(-2) < y <= 1 - exp(-2), in (y - 1/2)^2
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# x = sqrt(-2 ln y) in [2, 8), i.e. exp(-32) < y <= exp(-2), in 1/x
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# x >= 8, i.e. y <= exp(-32), in 1/x
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coefs: tuple) -> float:
    """The polynomial in x with coefficients ``coefs``, highest power first."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """Standard-normal quantile: the x with Phi(x) = y, for one float y.

    A port of ndtri from Stephen L. Moshier's Cephes Math Library, which
    ``scipy.special.ndtri`` implements.  For exp(-2) < y <= 1 - exp(-2) it is
    sqrt(2 pi) * (w + w * w^2 P0(w^2) / Q0(w^2)) with w = y - 1/2; otherwise,
    with y' = min(y, 1 - y) and x = sqrt(-2 ln y'), it is
    x - ln(x) / x - (1/x) P(1/x) / Q(1/x), with (P1, Q1) for x < 8 and
    (P2, Q2) beyond, negated for y < 1/2.  Every step is one float operation
    in Cephes' order, with ``math.log`` and ``math.sqrt`` (not numpy's
    vectorised log, which may round differently), and the result is the
    same float as scipy's: the tests compare the two with ``==`` at every
    level 1 - 1/(t ln T) of expt2-expt4 at their paper horizons and over a
    grid that covers each range and its edges.  ndtri(0) = -inf,
    ndtri(1) = inf, and y outside [0, 1] or nan gives nan.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        w = y - 0.5
        w2 = w * w
        return (w + w * (w2 * _horner(w2, _P0) / _horner(w2, _Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x = x - math.log(x) / x - _tail_term(x)
    return x if upper else -x


def _tail_term(x: float) -> float:
    """ndtri's (1/x) P(1/x) / Q(1/x) for x = sqrt(-2 ln y) >= 2: (P1, Q1)
    for x < 8, (P2, Q2) from 8 on."""
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return z * _horner(z, p) / _horner(z, q)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call.  scipy is an optional
    dependency (the ``beta`` extra), so its absence raises an ImportError
    that names the policy needing it."""
    try:
        import scipy.special
    except ImportError as exc:
        raise ImportError("bayes-ucb with prior 'beta' needs scipy, which is not "
                          "installed (pip install 'eucbv[beta]')") from exc
    return scipy.special


def _check_prior(prior: str) -> None:
    if prior not in _PRIORS:
        raise ValueError(f"bayes-ucb prior must be 'beta' or 'gauss', got {prior!r}")


def _level(t, horizon) -> float:
    return 1.0 - 1.0 / (t * math.log(horizon))


def _gauss_quantile(post_mean, q, root_precision):
    """The level-Phi(q) quantile of N(post_mean, 1 / root_precision^2)."""
    return post_mean + q / root_precision


def bayes_ucb_index(reward_sum, pulls, t, horizon, prior="beta"):
    """Posterior quantile at level 1 - 1/(t ln T); scalar or array
    ``reward_sum`` and ``pulls``, scalar t and horizon.

    For prior "beta" ``reward_sum`` is the clamped-reward (success) count.
    """
    _check_prior(prior)
    level = _level(t, horizon)
    if prior == "beta":
        return _special().betaincinv(reward_sum + 1.0, pulls - reward_sum + 1.0, level)
    precision = 1.0 + pulls
    return _gauss_quantile(reward_sum / precision, ndtri(level), np.sqrt(precision))


class TsBetaPolicy(BatchPolicy):
    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        if rng is None:
            raise ValueError("ts-beta needs a policy random stream")
        self.successes = np.zeros((n_runs, n_arms), dtype=np.float64)
        # (d, c) of the shapes 1..n, entry n - 1 for shape n
        self._table = gamma_constants(np.arange(1.0, 65.0))
        # Marsaglia-Tsang constants of the (R, 2K) Beta shapes
        # [successes + 1 | failures + 1], refreshed for the pulled cells
        self._d, self._c = (np.full((n_runs, 2 * n_arms), x[0]) for x in self._table)

    def _select(self, t):
        return np.argmax(self.rng.beta_block(self._d, self._c), axis=1)

    def _after_update(self, t, cells, rewards):
        binary = (rewards == 0.0) | (rewards == 1.0)
        outcomes = rewards.copy()
        lanes = np.nonzero(~binary)[0]
        if lanes.size:
            u = self.rng.uniform_lanes(lanes)
            outcomes[lanes] = (u < np.clip(rewards[lanes], 0.0, 1.0)).astype(np.float64)
        successes = np.take(self.successes, cells) + outcomes
        np.put(self.successes, cells, successes)
        failures = np.take(self.stats.counts, cells) - successes
        # lane r's cell r*K + arm has its a shape at r*2K + arm, b K later
        a_cells = cells + cells // self.n_arms * self.n_arms
        both = np.concatenate([a_cells, a_cells + self.n_arms])
        size = self._table[0].size
        if t >= size:  # counts <= t, so every shape is at most t + 1
            while size <= t:
                size *= 2
            self._table = gamma_constants(np.arange(1.0, size + 1.0))
        rows = np.concatenate([successes, failures]).astype(np.intp)  # shape - 1
        np.put(self._d, both, self._table[0].take(rows))
        np.put(self._c, both, self._table[1].take(rows))


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
        _check_prior(prior)
        self.prior = prior
        if prior == "beta":
            _special()  # import while the policy is built, not at its first step
            self.successes = np.zeros((n_runs, n_arms), dtype=np.float64)
        else:
            # Per-cell posterior mean and sqrt(1 + z), refreshed for the
            # pulled cells as TS-Gauss keeps its posterior.
            self._post_mean = np.zeros((n_runs, n_arms))
            self._root_precision = np.ones((n_runs, n_arms))

    def _select(self, t):
        if self.prior == "beta":
            scores = bayes_ucb_index(self.successes, self.stats.counts, t, self.horizon)
        else:
            q = ndtri(_level(t, self.horizon))
            scores = _gauss_quantile(self._post_mean, q, self._root_precision)
        return np.argmax(scores, axis=1)

    def _after_update(self, t, cells, rewards):
        if self.prior == "beta":
            successes = np.take(self.successes, cells) + np.clip(rewards, 0.0, 1.0)
            np.put(self.successes, cells, successes)
        else:
            precision = 1.0 + np.take(self.stats.counts, cells)
            np.put(self._post_mean, cells, np.take(self.stats.sums, cells) / precision)
            np.put(self._root_precision, cells, np.sqrt(precision))
