"""Closed-form index baselines: UCB1, UCB-V, MOSS, OCUCB.

Index formulas (z = pulls of the arm, t = current timestep, T = horizon):

    UCB1   mean + sqrt(2 ln t / z)
    UCB-V  mean + sqrt(2 v ln t / z) + 3 ln t / (2 z)
    MOSS   mean + sqrt(max(ln(T / (K z)), 0) / z)
    OCUCB  mean + sqrt((alpha / z) ln(psi T / z)), defaults alpha=3, psi=2

The index functions accept scalars or arrays.  UCB1 and UCB-V read t, so
every step recomputes all of their cells; MOSS and OCUCB do not, so they
keep a per-cell index and refresh only the cells each step pulls.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy


def ucb1_index(mean, pulls, t):
    return mean + np.sqrt(2.0 * math.log(t) / pulls)


def ucbv_index(mean, variance, pulls, t):
    log_t = math.log(t)
    return mean + np.sqrt(2.0 * variance * log_t / pulls) + 3.0 * log_t / (2.0 * pulls)


def moss_index(mean, pulls, horizon, n_arms):
    explore = np.maximum(np.log(horizon / (n_arms * pulls)), 0.0)
    return mean + np.sqrt(explore / pulls)


def ocucb_index(mean, pulls, horizon, alpha=3.0, psi=2.0):
    explore = np.maximum(np.log(psi * horizon / pulls), 0.0)
    return mean + np.sqrt(alpha * explore / pulls)


class Ucb1Policy(BatchPolicy):
    def _select(self, t):
        scores = ucb1_index(self.stats.means(), self.stats.counts, t)
        return np.argmax(scores, axis=1)


class UcbvPolicy(BatchPolicy):
    def _select(self, t):
        means = self.stats.means()
        scores = ucbv_index(means, self.stats.variances(means), self.stats.counts, t)
        return np.argmax(scores, axis=1)


class _CellIndexPolicy(BatchPolicy):
    """An index that reads only its own cell's mean and pull count (and
    constants such as T), so it is kept per cell: each update recomputes
    the R pulled cells with the same elementwise expressions, and selection
    is one argmax.  Cells never pulled read nan, as sums/counts would."""

    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        self._index = np.full((n_runs, n_arms), np.nan)

    def _cell_index(self, mean, pulls):
        raise NotImplementedError

    def _after_update(self, t, cells, rewards):
        pulls, mean = self.stats.cell_means(cells)
        np.put(self._index, cells, self._cell_index(mean, pulls))

    def _select(self, t):
        return np.argmax(self._index, axis=1)


class MossPolicy(_CellIndexPolicy):
    def _cell_index(self, mean, pulls):
        return moss_index(mean, pulls, self.horizon, self.n_arms)


class OcucbPolicy(_CellIndexPolicy):
    def __init__(self, n_runs, n_arms, horizon, rng=None, alpha=3.0, psi=2.0):
        super().__init__(n_runs, n_arms, horizon, rng)
        if alpha <= 0.0 or psi <= 0.0:
            raise ValueError("OCUCB parameters alpha and psi must be positive")
        self.alpha = alpha
        self.psi = psi

    def _cell_index(self, mean, pulls):
        return ocucb_index(mean, pulls, self.horizon, self.alpha, self.psi)
