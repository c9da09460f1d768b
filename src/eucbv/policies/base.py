"""Sequential policy contract.

A policy sees timesteps t = 1..T.  For t <= K every policy pulls arm t-1
(the initialization pulls, which count toward all statistics); from t = K+1
it selects according to its rule.  Every policy is a lockstep batch of
independent lanes, one per run; lane r's trajectory is identical to running
that lane alone (a one-lane batch) because no computation couples lanes.

Each step t the driver calls ``select(t)``, which returns one arm per lane,
then ``update(t, arms, rewards)``.  The driver's t is the only clock.
``update`` records the observations in ``stats`` and passes the flat
(C-order) cells it wrote, ``r*K + arms[r]`` for lane r, to the subclass
hook ``_after_update(t, cells, rewards)``; per-lane state is written through
those cells with ``np.take``/``np.put``.

The (R, K) ``active`` mask holds the arms each lane may still pull; only
the eliminating policies (eucbv, ucb-improved, median-elim) clear it, and
they keep each lane's round index in ``m``.  EUCBV and UCB-Improved remove
the arms that ``dominated`` names.  ``survivors`` reads the mask.
"""

from __future__ import annotations

import numpy as np

from ..stats import PullStats


def dominated(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Cells whose upper bound lies strictly below their lane's best lower
    bound, as an (R, K) mask.  Both bounds hold -inf outside the active set,
    so every inactive cell is in the mask and ``~mask`` is the new active set.

    The best runs over all active arms including the candidate, so the arm
    attaining it is never dominated (its upper bound is >= its lower bound)
    and every lane keeps an active arm.
    """
    # the row max read at its argmax: the same value, in about half the time
    best = lower[np.arange(len(lower)), lower.argmax(axis=1)]
    return upper < best[:, None]


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

    def select(self, t: int) -> np.ndarray:
        """Arm choice per lane at timestep t (1-based)."""
        if t <= self.n_arms:
            return np.full(self.n_runs, t - 1, dtype=np.int64)
        return self._select(t)

    def update(self, t: int, arms: np.ndarray, rewards: np.ndarray) -> None:
        """Record one observation per lane at timestep t."""
        self._after_update(t, self.stats.record(arms, rewards), rewards)

    def survivors(self) -> np.ndarray:
        """Per lane, the lone active arm once one is left, else -1."""
        only = np.argmax(self.active, axis=1)
        return np.where(self.active.sum(axis=1) == 1, only, -1).astype(np.int64)

    def pull_counts(self) -> np.ndarray:
        return self.stats.counts.astype(np.int64)

    def _live(self, lanes: np.ndarray) -> np.ndarray:
        """Which of ``lanes`` still hold more than one active arm."""
        return np.count_nonzero(self.active[lanes], axis=1) > 1

    def _select(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def _after_update(self, t: int, cells: np.ndarray, rewards: np.ndarray) -> None:
        pass
