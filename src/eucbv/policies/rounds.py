"""Round-structured baselines: DMED, UCB-Improved, Median Elimination.

These policies have per-run control flow (queues, round-robin sweeps), laid
out lane-vectorized: a lane's queue or sweep is a row of an arm mask plus a
cursor column, consumed in ascending arm order from the cursor.  UCB-Improved
and Median Elimination sweep the ``active`` mask that ``BatchPolicy`` owns,
clear the arms they eliminate there, and keep a per-lane round index ``m``
into a per-round quota table computed once with the same float operations as
the listings; UCB-Improved's last round is EUCBV's cap M (``round_cap``).
Each counts the t <= K initialization pulls (arm t-1) toward its round
bookkeeping where the listing does.  Per-run scalar transcriptions of all
three are kept in ``tests/oracles.py`` as pull-for-pull references.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy, dominated
from .eucbv import round_cap
from .kl import kl_bernoulli


class DmedBatchPolicy(BatchPolicy):
    """Deterministic minimum empirical divergence, Bernoulli divergence.

    Keeps a pull queue per lane; when it empties at timestep t the next
    queue is the arms j with  z_j * kl(mean_j, mean_best) < ln(t) - ln(z_j),
    consumed in ascending arm order.  The empirical best always satisfies
    this (divergence 0), but if the rebuilt list comes out empty (z_j = t
    edge) the empirical best is pulled.

    The pull queue of lane r is (mask row r, cursor r): queue members are the
    set arms at or past the cursor, consumed in ascending index order; an
    exhausted queue rebuilds from the divergence condition at the current t.
    """

    def __init__(self, n_runs, n_arms, horizon, rng=None):
        super().__init__(n_runs, n_arms, horizon, rng)
        self._mask = np.zeros((n_runs, n_arms), dtype=bool)
        self._cursor = np.full(n_runs, n_arms, dtype=np.int64)  # empty queues
        self._cols = np.arange(n_arms)

    def _select(self, t):
        avail = self._mask & (self._cols >= self._cursor[:, None])
        stale = ~avail.any(axis=1)
        rows = np.nonzero(stale)[0]
        if rows.size:
            counts = self.stats.counts[rows]
            means = self.stats.sums[rows] / counts
            lhs = counts * kl_bernoulli(means, means.max(axis=1, keepdims=True))
            keep = lhs < (math.log(t) - np.log(counts))
            empty = ~keep.any(axis=1)
            if empty.any():
                sub = np.nonzero(empty)[0]
                keep[sub, np.argmax(means[sub], axis=1)] = True
            self._mask[rows] = keep
            self._cursor[rows] = 0
            avail[rows] = keep
        arms = np.argmax(avail, axis=1)
        self._cursor = arms + 1
        return arms


class _SweepPolicy(BatchPolicy):
    """Round-robin sweeps over a per-lane active set with per-round quotas.

    Subclasses pass ``quotas``, where ``quotas[m]`` is round m's per-arm
    quota; a lane past the table's last round keeps the last quota.  The
    cursor is the column the next sweep starts from (cyclically); a round
    completion resets it to 0.
    """

    def __init__(self, n_runs, n_arms, horizon, rng, quotas):
        super().__init__(n_runs, n_arms, horizon, rng)
        self._quotas = np.array(quotas, dtype=np.int64)
        self._quota = np.full(n_runs, self._quotas[0])
        self._cursor = np.zeros(n_runs, dtype=np.int64)
        self.m = np.zeros(n_runs, dtype=np.int64)
        self._cols = np.arange(n_arms)

    def _sweep(self, counts: np.ndarray) -> np.ndarray:
        """Per lane, the next active arm below quota cycling from the cursor;
        when every active arm met the quota, the next active arm."""
        cand = self.active & (counts < self._quota[:, None])
        spent = ~cand.any(axis=1)
        if spent.any():
            cand[spent] = self.active[spent]
        ahead = cand & (self._cols >= self._cursor[:, None])
        arms = np.where(ahead.any(axis=1), np.argmax(ahead, axis=1), np.argmax(cand, axis=1))
        self._cursor = arms + 1
        return arms

    def _completed(self, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Live lanes whose every active arm has met this round's quota.

        Only the lanes whose pulled cell met its quota are read further,
        liveness first; no step reduces the whole (R, K) mask.
        """
        lanes = np.nonzero(np.take(counts, cells) >= self._quota)[0]
        if lanes.size:
            lanes = lanes[self._live(lanes)]
        if not lanes.size:
            return lanes
        least = np.where(self.active[lanes], counts[lanes], np.inf).min(axis=1)
        return lanes[least >= self._quota[lanes]]

    def _next_round(self, lanes: np.ndarray) -> None:
        self.m[lanes] += 1
        self._quota[lanes] = self._quotas[np.minimum(self.m[lanes], self._quotas.size - 1)]
        self._cursor[lanes] = 0


class UcbImprovedPolicy(_SweepPolicy):
    """Round-based elimination with a halving gap guess delta_tilde.

    Round m pulls every active arm up to n_m = ceil(2 ln(T d^2) / d^2) total
    pulls (d = delta_tilde = 2**-m, logs clamped at 0), then removes arms with
    mean_i + c < max_j(mean_j - c) for c = sqrt(ln(T d^2) / (2 n_m)) and
    halves d, for at most floor(log2(T/e)/2) rounds.  After the final round
    (or on a singleton) it keeps cycling the surviving arms.
    """

    def __init__(self, n_runs, n_arms, horizon, rng=None):
        max_rounds = round_cap(horizon)
        quotas, widths = [], []
        d = 1.0
        for _ in range(max(max_rounds, 0) + 1):
            log_term = max(math.log(horizon * d * d), 0.0)
            quota = max(1, math.ceil(2.0 * log_term / (d * d)))
            quotas.append(quota)
            widths.append(math.sqrt(log_term / (2.0 * quota)))
            d *= 0.5
        super().__init__(n_runs, n_arms, horizon, rng, quotas)
        self._max_rounds = max_rounds
        self._widths = np.array(widths, dtype=np.float64)

    def _select(self, t):
        return self._sweep(self.stats.counts)

    def _live(self, lanes):
        """Lanes with more than one active arm and a round left to finish."""
        return super()._live(lanes) & (self.m[lanes] <= self._max_rounds)

    def _after_update(self, t, cells, rewards):
        counts = self.stats.counts
        done = self._completed(cells, counts)
        if not done.size:
            return
        c = self._widths[self.m[done]][:, None]
        means = np.where(self.active[done], self.stats.sums[done] / counts[done], -np.inf)
        self.active[done] = ~dominated(means + c, means - c)
        self._next_round(done)


class MedianElimPolicy(_SweepPolicy):
    """Median elimination with accuracy eps and confidence delta.

    Round l samples every surviving arm n_l = ceil(4/eps_l^2 * ln(3/delta_l))
    times using fresh per-round estimates, drops the arms strictly below the
    round's median mean, then sets eps_{l+1} = 3/4 eps_l, delta_{l+1} =
    delta_l / 2.  The t <= K initialization pulls seed round 1's counts.
    """

    def __init__(self, n_runs, n_arms, horizon, rng=None,
                 epsilon: float = 0.1, delta: float = 0.1):
        if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
            raise ValueError("median-elim needs epsilon, delta in (0, 1)")
        # Two arms cannot both reach a quota above T, so the table stops at
        # the first such round.
        quotas = []
        eps_l, delta_l = epsilon / 4.0, delta / 2.0
        while not quotas or quotas[-1] <= horizon:
            quotas.append(max(1, math.ceil(4.0 / eps_l ** 2 * math.log(3.0 / delta_l))))
            eps_l *= 0.75
            delta_l *= 0.5
        super().__init__(n_runs, n_arms, horizon, rng, quotas)
        self._round_counts = np.zeros((n_runs, n_arms), dtype=np.float64)
        self._round_sums = np.zeros((n_runs, n_arms), dtype=np.float64)

    def _select(self, t):
        return self._sweep(self._round_counts)

    def _after_update(self, t, cells, rewards):
        # A committed lane's round statistics are never read again.
        np.put(self._round_counts, cells, np.take(self._round_counts, cells) + 1.0)
        np.put(self._round_sums, cells, np.take(self._round_sums, cells) + rewards)
        done = self._completed(cells, self._round_counts)
        for lane in done.tolist():
            idx = np.nonzero(self.active[lane])[0]
            means = self._round_sums[lane, idx] / self._round_counts[lane, idx]
            med = float(np.median(means))
            self.active[lane, idx[~(means >= med)]] = False
        if done.size:
            self._round_counts[done] = 0.0
            self._round_sums[done] = 0.0
            self._next_round(done)
