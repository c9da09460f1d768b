"""Online per-arm sufficient statistics.

The variance estimator is the biased one (divisor z, not z-1), computed from
running sums: v = max(0, sq_sum/z - (sum/z)^2).  The max(0, .) clamp keeps
a cancelled difference from going negative, but the cancellation itself
grows with the rewards' mean.  For 10k draws of N(c, 0.25) the estimate at
c = 1e4 matches c = 0 to five digits, at c = 1e6 it is off in the second
digit (0.2615 for 0.2490 in one sample), and at c = 1e8 it is noise (0 in
that sample, 18 in another).  Rewards in [0, 1], as the analysis assumes,
are far from that limit.
"""

from __future__ import annotations

import numpy as np


def _variance(sq_sums, counts, means):
    """Biased variance max(sq/z - m*m, 0) from the square sums and means."""
    return np.maximum(sq_sums / counts - means * means, 0.0)


class PullStats:
    """Per-(run, arm) pull counts and reward sums for a batch of runs.

    Counts are float64 for arithmetic convenience; they stay exact for any
    horizon this library targets (integers below 2**53).  The three (R, K)
    arrays are updated in place, never rebound: ``record`` writes through
    flat views of them.
    """

    __slots__ = ("counts", "sums", "sq_sums", "_flat", "_row_starts")

    def __init__(self, n_runs: int, n_arms: int):
        self.counts = np.zeros((n_runs, n_arms), dtype=np.float64)
        self.sums = np.zeros((n_runs, n_arms), dtype=np.float64)
        self.sq_sums = np.zeros((n_runs, n_arms), dtype=np.float64)
        self._flat = (self.counts.reshape(-1), self.sums.reshape(-1),
                      self.sq_sums.reshape(-1))
        self._row_starts = np.arange(n_runs) * n_arms

    def record(self, arms: np.ndarray, rewards: np.ndarray) -> np.ndarray:
        """Record one (arm, reward) observation per lane; returns the flat
        (C-order) cells written, ``r*K + arms[r]`` for lane r."""
        cells = self._row_starts + arms
        counts, sums, sq_sums = self._flat
        counts[cells] += 1.0
        sums[cells] += rewards
        sq_sums[cells] += rewards * rewards
        return cells

    def means(self) -> np.ndarray:
        """Per-cell sample means; caller guarantees counts >= 1."""
        return self.sums / self.counts

    def variances(self, means=None) -> np.ndarray:
        """Per-cell biased variances, clamped at 0; caller guarantees counts >= 1.
        ``means``, if given, must be ``means()``; it saves the divide."""
        if means is None:
            means = self.sums / self.counts
        return _variance(self.sq_sums, self.counts, means)

    def cell_means(self, cells: np.ndarray):
        """(counts, means) of the flat cells ``cells`` (an index array of any
        shape), equal to those cells of ``counts`` and ``means()``."""
        counts = np.take(self._flat[0], cells)
        return counts, np.take(self._flat[1], cells) / counts

    def cell_estimates(self, cells: np.ndarray):
        """(counts, means, variances) of the flat cells ``cells``, equal to
        those cells of ``counts``, ``means()`` and ``variances()``."""
        counts, means = self.cell_means(cells)
        return counts, means, _variance(np.take(self._flat[2], cells), counts, means)
