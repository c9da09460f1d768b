"""Sequential policy contract.

A policy sees timesteps t = 1..T.  For t <= K every policy pulls arm t-1
(the initialization pulls, which count toward all statistics); from t = K+1
it selects according to its rule.  Every policy is a lockstep batch of
independent lanes, one per run; lane r's trajectory is identical to running
that lane alone (a one-lane batch) because no computation couples lanes.

The (R, K) ``active`` mask holds the arms each lane may still pull; only
the eliminating policies (eucbv, ucb-improved, median-elim) clear it, and
they keep each lane's round index in ``m``.  ``survivors`` reads the mask.
"""

from __future__ import annotations

import numpy as np

from ..stats import PullStats


class BatchPolicy:
    """Base for lockstep-batched policies (one lane per replication)."""

    def __init__(self, n_runs: int, n_arms: int, horizon: int, rng=None):
        if n_arms < 2:
            raise ValueError("policies need at least 2 arms")
        if horizon < n_arms:
            raise ValueError("horizon must cover the initialization pulls")
        self.n_runs = n_runs
        self.n_arms = n_arms
        self.horizon = horizon
        self.rng = rng
        self.stats = PullStats(n_runs, n_arms)
        self.active = np.ones((n_runs, n_arms), dtype=bool)
        self._t = 0

    def select(self, t: int) -> np.ndarray:
        """Arm choice per lane at timestep t (1-based)."""
        if t <= self.n_arms:
            return np.full(self.n_runs, t - 1, dtype=np.int64)
        return self._select(t)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        """Record one observation per lane."""
        self.stats.record(arms, rewards)
        self._t += 1
        self._after_update(self._t, arms, rewards)

    def survivors(self) -> np.ndarray:
        """Per lane, the lone active arm once one is left, else -1."""
        only = np.argmax(self.active, axis=1)
        return np.where(self.active.sum(axis=1) == 1, only, -1).astype(np.int64)

    def pull_counts(self) -> np.ndarray:
        return self.stats.pull_counts()

    def _select(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def _after_update(self, t: int, arms: np.ndarray, rewards: np.ndarray) -> None:
        pass
