"""Online per-arm sufficient statistics.

The variance estimator is the biased one (divisor z, not z-1), computed from
running sums: v = max(0, sq_sum/z - (sum/z)^2).  The max(0, .) clamp guards
against catastrophic cancellation; with rewards of magnitude O(1) and desk
horizons the cancellation itself is benign.
"""

from __future__ import annotations

import numpy as np


class PullStats:
    """Per-(run, arm) pull counts and reward sums for a batch of runs.

    Counts are float64 for arithmetic convenience; they stay exact for any
    horizon this library targets (integers below 2**53).
    """

    __slots__ = ("counts", "sums", "sq_sums", "_rows")

    def __init__(self, n_runs: int, n_arms: int):
        self.counts = np.zeros((n_runs, n_arms), dtype=np.float64)
        self.sums = np.zeros((n_runs, n_arms), dtype=np.float64)
        self.sq_sums = np.zeros((n_runs, n_arms), dtype=np.float64)
        self._rows = np.arange(n_runs)

    def record(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        """Record one (arm, reward) observation per lane."""
        self.counts[self._rows, arms] += 1.0
        self.sums[self._rows, arms] += rewards
        self.sq_sums[self._rows, arms] += rewards * rewards

    def means(self) -> np.ndarray:
        """Per-cell sample means; caller guarantees counts >= 1."""
        return self.sums / self.counts

    def variances(self) -> np.ndarray:
        """Per-cell biased variances, clamped at 0; caller guarantees counts >= 1."""
        m = self.sums / self.counts
        v = self.sq_sums / self.counts - m * m
        return np.maximum(v, 0.0)

    def pull_counts(self) -> np.ndarray:
        return self.counts.astype(np.int64)

