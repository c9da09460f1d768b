"""Closed-form index baselines: UCB1, UCB-V, MOSS, OCUCB.

Index formulas (z = pulls of the arm, t = current timestep, T = horizon):

    UCB1   mean + sqrt(2 ln t / z)
    UCB-V  mean + sqrt(2 v ln t / z) + 3 ln t / (2 z)
    MOSS   mean + sqrt(max(ln(T / (K z)), 0) / z)
    OCUCB  mean + sqrt((alpha / z) ln(psi T / z)), defaults alpha=3, psi=2

The index functions accept scalars or arrays.  UCB1 reads t, so every step
recomputes all of its cells.  UCB-V reads t too, but only through ln t: it
keeps each cell's mean, 2v and 2z, refreshes the cells each step pulls, and
evaluates its index from them in place.  MOSS and OCUCB do not read t, so
they keep a per-cell index and refresh only the cells each step pulls.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy


def ucb1_index(mean, pulls, t):
    return mean + np.sqrt(2.0 * math.log(t) / pulls)


def ucbv_index(mean, variance, pulls, t):
    shape = np.broadcast_shapes(np.shape(mean), np.shape(variance), np.shape(pulls))
    pulls = np.asarray(pulls, dtype=np.float64)
    index = _ucbv_into(np.empty(shape), np.empty(shape), mean, 2.0 * np.asarray(variance),
                       pulls, 2.0 * pulls, math.log(t))
    return index if shape else index[()]


def _ucbv_into(out, tmp, mean, two_v, pulls, two_z, log_t):
    """UCB-V's mean + sqrt(2v ln t / z) + 3 ln t / (2z), from 2v and 2z,
    written into ``out`` with ``tmp`` as scratch: (2v ln t) / z, its sqrt,
    + mean, + (3 ln t) / (2z), the float operations of the formula in order."""
    np.multiply(two_v, log_t, out=out)
    out /= pulls
    np.sqrt(out, out=out)
    out += mean
    np.divide(3.0 * log_t, two_z, out=tmp)
    out += tmp
    return out


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
    """Keeps each cell's mean, 2v and 2z, refreshed for the pulled cells;
    selection evaluates the index into a reused buffer and takes its argmax.
    Cells never pulled read nan, as sums/counts would."""

    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        self._mean, self._two_v, self._two_z, self._index, self._tmp = (
            np.full((n_runs, n_arms), np.nan) for _ in range(5))

    def _after_update(self, t, cells, rewards):
        pulls, mean, variance = self.stats.cell_estimates(cells)
        np.put(self._mean, cells, mean)
        np.put(self._two_v, cells, 2.0 * variance)
        np.put(self._two_z, cells, 2.0 * pulls)

    def _select(self, t):
        _ucbv_into(self._index, self._tmp, self._mean, self._two_v, self.stats.counts,
                   self._two_z, math.log(t))
        return np.argmax(self._index, axis=1)


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
