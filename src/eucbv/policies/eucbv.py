"""The EUCBV arm-elimination policy.

Round structure: epsilon_m = 2**-m starts at 1 and halves at each round
reset; round m allots a per-arm quota n_m = ceil(log(psi*T*eps_m^2)/(2 eps_m))
and the reset fires once t reaches the deadline N_m (N_0 = K*n_0, afterwards
N_{m+1} = t + |B| * n_{m+1}).  A reset fires only while m <= M, where
M = floor(log2(T/e)/2), so a lane makes at most M+1 resets and ends with
m <= M+1.  At every timestep the policy pulls the active arm with the highest

    mean + sqrt(rho * (v + 2) * log(psi*T*eps_m**p) / (4 z))

then removes every active arm whose upper bound falls strictly below the best
active lower bound.  ``p`` is ``radius_eps_power``: with the default p=2 the
radius log shares the quota's argument, and the radius keeps shrinking fast
enough across rounds for the algorithm to out-exploit MOSS/UCB-V on the
benchmark testbeds; p=1 is the conservative variant whose radius floors near
sqrt(rho*(v+2)*log(psi*T*2^-(M+1))/(4 z)) once rounds stop.  Once a lane's
active set is a singleton the surviving arm is pulled until T with no
further eliminations or round resets.

Logs are natural; log arguments <= 1 clamp to 0 (negative widths and quotas
are meaningless; the theory's regime T >= K**2.4 never triggers the clamp).
Ties in argmax/max resolve to the lowest arm index.

Round values (eps_m = 2**-m, n_m, the radius log) are tables over m = 0..M+1;
a lane keeps its round m, deadline N_m and active set.  One run is n_runs=1.

Each (lane, arm) cell's upper and lower bound, mean +- radius, is cached
and kept current: an update refreshes the cells it pulled, and a round reset
refreshes its lanes' whole rows, since their radius log changed.  Both hold
-inf outside the active set: an eliminated cell is written -inf when it
falls, and a reset re-masks the rows it refreshes.  Selection is one argmax
over the upper bounds; elimination is one row max of the lower bounds, one
compare and one count, and writes the mask and bounds only when an active
arm falls.  The refreshed cells evaluate the same elementwise expressions as
a full (R, K) recompute, so the cache is exact by construction.  The earliest
deadline among the lanes that can still reset is kept as one scalar, so a
step before it reads no per-lane round state.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .base import BatchPolicy, dominated


def confidence_radius(v_hat, pulls, log_term, rho):
    """sqrt(rho*(v+2)*log_term/(4 z)); polymorphic over scalars and arrays."""
    return np.sqrt(rho * (v_hat + 2.0) * log_term / (4.0 * pulls))


def _clamped_log(arg) -> np.ndarray:
    """log(arg) where arg > 1, else 0."""
    return np.where(arg > 1.0, np.log(np.maximum(arg, 1.0)), 0.0)


def _quota(psi: float, horizon: int, epsilon) -> np.ndarray:
    """Per-arm round quota n_m = ceil(clamped_log(psi*T*eps^2) / (2 eps))."""
    logs = _clamped_log(psi * horizon * epsilon * epsilon)
    return np.ceil(logs / (2.0 * epsilon)).astype(np.int64)


def round_cap(horizon: int) -> int:
    """The round cap M = floor(log2(T/e)/2) of EUCBV and UCB-Improved."""
    return math.floor(0.5 * math.log2(horizon / math.e))


class EucbvPolicy(BatchPolicy):
    """EUCBV: per-lane rounds, variance-aware radius, arm elimination.

    Starts every lane at m=0, eps=1, all arms active, n_0, N_0 = K*n_0, with
    the round cap M.  psi defaults to T/K^2.  Rejects T <= K (the
    initialization pulls would leave no step to select) and non-positive
    rho/psi; warns when T < K**2.4, where the gap-dependent guarantee lapses.
    """

    def __init__(self, n_runs: int, n_arms: int, horizon: int, rng=None,
                 rho: float = 0.5, psi: float | None = None,
                 radius_eps_power: int = 2):
        super().__init__(n_runs, n_arms, horizon, rng)
        if horizon <= n_arms:
            raise ValueError(f"horizon {horizon} too small for {n_arms} arms (need T >= K+1)")
        if psi is None:
            psi = horizon / (n_arms * n_arms)
        if rho <= 0.0 or psi <= 0.0:
            raise ValueError("rho and psi must be positive")
        if radius_eps_power not in (1, 2):
            raise ValueError("radius_eps_power must be 1 or 2")
        if horizon < n_arms ** 2.4:
            warnings.warn(
                f"T={horizon} < K^2.4={n_arms ** 2.4:.0f}: the regret guarantee does not apply",
                stacklevel=2,
            )
        self.rho = rho
        self.psi = psi
        self.radius_eps_power = radius_eps_power      # epsilon power inside the radius log
        self.max_rounds = round_cap(horizon)          # M
        # Round m's values for m = 0..M+1: a lane makes at most M+1 resets.
        eps = np.array([2.0 ** -m for m in range(self.max_rounds + 2)])
        self._quotas = _quota(psi, horizon, eps)      # n_m
        self._log_conf = _clamped_log(psi * horizon * eps ** radius_eps_power)
        self.m = np.zeros(n_runs, dtype=np.int64)     # (R,) round index
        self.deadline = np.full(n_runs, n_arms * self._quotas[0])  # (R,) N_m
        # Per-cell bounds under the current statistics and rounds, -inf
        # outside the active set; cells never pulled read nan, as
        # sums/counts would.
        self._ucb = np.full((n_runs, n_arms), np.nan)
        self._lcb = np.full((n_runs, n_arms), np.nan)
        # Per lane, the deadline while a reset can still come, else inf
        # (past the round cap, or found committed when due); and its
        # minimum, before which no lane is due.
        self._wait = self.deadline.astype(np.float64)
        self._due_at = float(self._wait.min())

    def _refresh(self, cells: np.ndarray, log_conf: np.ndarray) -> None:
        """Recompute the bounds of the flat cells ``cells`` under the radius
        logs ``log_conf`` (broadcast against ``cells``)."""
        pulls, means, variances = self.stats.cell_estimates(cells)
        radius = confidence_radius(variances, pulls, log_conf, self.rho)
        np.put(self._ucb, cells, means + radius)
        np.put(self._lcb, cells, means - radius)

    def _select(self, t: int) -> np.ndarray:
        """Per-lane active arm with the highest upper bound (lowest index on
        ties); a committed lane's lone active arm."""
        return np.argmax(self._ucb, axis=1)

    def _after_update(self, t: int, cells: np.ndarray, rewards: np.ndarray) -> None:
        # The pulled cells are active, so their refreshed bounds need no mask.
        self._refresh(cells, self._log_conf[self.m])
        if t <= self.n_arms:
            return  # initialization phase: no elimination, no round resets
        # A lane already committed before this step only pulls; a lane that
        # becomes a singleton during this step still runs this step's checks,
        # so liveness is read before this step's elimination.
        due = self._due(t) if t >= self._due_at else ()
        self._eliminate()
        if len(due):
            self._advance_round(t, due)

    def _due(self, t: int) -> np.ndarray:
        """The live lanes due for a round reset at t.  A due lane found
        committed can never reset again, so it leaves ``_wait``."""
        due = np.flatnonzero((t >= self.deadline) & (self.m <= self.max_rounds))
        live = self._live(due)
        if not live.all():
            self._wait[due[~live]] = np.inf
            self._due_at = float(self._wait.min())
        return due[live]

    def _eliminate(self) -> None:
        """Remove the active arms that ``dominated`` names under the cached
        bounds.  Every inactive cell is in its mask, so the count says
        whether an active arm fell.  No more active cells than lanes means
        every lane is committed, and a committed lane keeps its lone arm."""
        n_active = np.count_nonzero(self.active)
        if n_active == self.n_runs:
            return
        out = dominated(self._ucb, self._lcb)
        if np.count_nonzero(out) + n_active > self.active.size:
            self.active[out] = False
            self._ucb[out] = -np.inf
            self._lcb[out] = -np.inf

    def _advance_round(self, t: int, rows: np.ndarray) -> None:
        """Round reset for the lanes ``rows`` (ascending), all due: increment
        m, set N_{m+1} = t + |B| * n_{m+1}, refresh and re-mask their bounds."""
        self.m[rows] += 1
        self.deadline[rows] = t + self.active[rows].sum(axis=1) * self._quotas[self.m[rows]]
        self._wait[rows] = np.where(self.m[rows] <= self.max_rounds, self.deadline[rows], np.inf)
        self._due_at = float(self._wait.min())
        cells = rows[:, None] * self.n_arms + np.arange(self.n_arms)
        self._refresh(cells, self._log_conf[self.m[rows]][:, None])
        out = cells[~self.active[rows]]
        np.put(self._ucb, out, -np.inf)
        np.put(self._lcb, out, -np.inf)
