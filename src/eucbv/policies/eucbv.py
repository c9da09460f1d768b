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

Every lane keeps its own round state (m, epsilon, n_m, N_m, active set); the
single-run case is simply n_runs=1.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .base import BatchPolicy

_NEG_INF = -np.inf


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


class EucbvPolicy(BatchPolicy):
    """EUCBV: per-lane rounds, variance-aware radius, arm elimination.

    Starts every lane at m=0, eps=1, all arms active, n_0, N_0 = K*n_0, with
    the round cap M.  psi defaults to T/K^2.  Rejects T <= K (the
    initialization pulls would leave no step to select) and non-positive
    rho/psi; warns when T < K**2.4, where the gap-dependent guarantee lapses.
    """

    policy_id = "eucbv"

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
        self.max_rounds = math.floor(0.5 * math.log2(horizon / math.e))  # M
        self.m = np.zeros(n_runs, dtype=np.int64)     # (R,) round index
        self.epsilon = np.ones(n_runs, dtype=np.float64)  # (R,) 2**-m, exact
        self.quota = _quota(psi, horizon, self.epsilon)   # (R,) n_m
        self.deadline = n_arms * self.quota           # (R,) N_m
        self.log_conf = self._radius_log(self.epsilon)    # (R,) clamped radius log
        self.active = np.ones((n_runs, n_arms), dtype=bool)
        # The last step's post-update UCBs (means + radius) from _eliminate,
        # valid while no update or round reset has happened since: _ucb_t
        # is the update count they were computed at, -1 for none.
        self._ucb = None
        self._ucb_t = -1

    def _radius_log(self, epsilon: np.ndarray) -> np.ndarray:
        return _clamped_log(self.psi * self.horizon * epsilon ** self.radius_eps_power)

    def _radius(self) -> np.ndarray:
        """Confidence radius of every (lane, arm) cell under its lane's round."""
        return confidence_radius(
            self.stats.variances(), self.stats.counts, self.log_conf[:, None], self.rho
        )

    def _select(self, t: int) -> np.ndarray:
        """Per-lane arm maximizing mean + radius over the active set.

        Ties resolve to the lowest index; when every lane's active set is a
        singleton the indices are not computed.  The UCBs the last update's
        elimination computed are reused when nothing has changed since.
        """
        if self.active.sum(axis=1).max() == 1:
            return np.argmax(self.active, axis=1)
        if self._ucb_t == self._t:
            ucb = self._ucb
        else:
            ucb = self.stats.means() + self._radius()
        return np.argmax(np.where(self.active, ucb, _NEG_INF), axis=1)

    def _after_update(self, t: int, arms: np.ndarray, rewards: np.ndarray) -> None:
        if t <= self.n_arms:
            return  # initialization phase: no elimination, no round resets
        # A lane already committed before this step only pulls; a lane that
        # becomes a singleton during this step still runs this step's checks.
        lanes = self.active.sum(axis=1) > 1
        if lanes.any():
            self._ucb, self._ucb_t = self._eliminate(lanes), t
            self._advance_round(t, lanes)

    def _eliminate(self, lanes: np.ndarray) -> np.ndarray:
        """In ``lanes``, remove active arms whose UCB falls strictly below the
        best active LCB; returns every cell's UCB.

        The max runs over all active arms including the candidate itself, so
        the arm attaining the best LCB always survives (its UCB >= its LCB).
        """
        means = self.stats.means()
        conf = self._radius()
        ucb = means + conf
        lcb_best = np.where(self.active, means - conf, _NEG_INF).max(axis=1)
        self.active &= ~(lanes[:, None] & (ucb < lcb_best[:, None]))
        return ucb

    def _advance_round(self, t: int, lanes: np.ndarray) -> None:
        """Round reset for the lanes in ``lanes`` with t >= N_m and m <= M:
        halve epsilon, set n_{m+1}, N_{m+1} = t + |B| * n_{m+1}, increment m."""
        adv = lanes & (t >= self.deadline) & (self.m <= self.max_rounds)
        if not adv.any():
            return
        self._ucb_t = -1  # the reset lanes' radii change
        self.epsilon[adv] *= 0.5
        quota = _quota(self.psi, self.horizon, self.epsilon[adv])
        self.quota[adv] = quota
        self.deadline[adv] = t + self.active[adv].sum(axis=1) * quota
        self.m[adv] += 1
        self.log_conf[adv] = self._radius_log(self.epsilon[adv])

    def survivors(self) -> np.ndarray:
        only = np.argmax(self.active, axis=1)
        return np.where(self.active.sum(axis=1) == 1, only, -1).astype(np.int64)
