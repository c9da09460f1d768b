"""The EUCBV arm-elimination policy.

Round structure: epsilon_m = 2**-m starts at 1 and halves at each round
reset; round m allots a per-arm quota n_m = ceil(log(psi*T*eps_m^2)/(2 eps_m))
and the reset fires once t reaches the deadline N_m (N_0 = K*n_0, afterwards
N_{m+1} = t + |B| * n_{m+1}), capped at M = floor(log2(T/e)/2) resets.  At
every timestep the policy pulls the active arm with the highest

    mean + sqrt(rho * (v + 2) * log(psi*T*eps_m**p) / (4 z))

then removes every active arm whose upper bound falls strictly below the best
active lower bound.  ``p`` is ``radius_eps_power``: with the default p=2 the
radius log shares the quota's argument, and the radius keeps shrinking fast
enough across rounds for the algorithm to out-exploit MOSS/UCB-V on the
benchmark testbeds; p=1 is the conservative variant whose radius floors near
sqrt(rho*(v+2)*log(psi*T*2^-M)/(4 z)) once rounds stop.  Once a lane's
active set is a singleton the surviving arm is pulled until T with no
further eliminations or round resets.

Logs are natural; log arguments <= 1 clamp to 0 (negative widths and quotas
are meaningless; the theory's regime T >= K**2.4 never triggers the clamp).
Ties in argmax/max resolve to the lowest arm index.

All operations act on a batched state (one independent lane per run); the
single-run case is simply n_runs=1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..stats import PullStats
from .base import BatchPolicy

_NEG_INF = -np.inf


def confidence_radius(v_hat, pulls, log_term, rho):
    """sqrt(rho*(v+2)*log_term/(4 z)); polymorphic over scalars and arrays."""
    return np.sqrt(rho * (v_hat + 2.0) * log_term / (4.0 * pulls))


def _quota(psi: float, horizon: int, epsilon) -> np.ndarray:
    """Per-arm round quota n_m = ceil(clamped_log(psi*T*eps^2) / (2 eps))."""
    arg = psi * horizon * epsilon * epsilon
    logs = np.where(arg > 1.0, np.log(np.maximum(arg, 1.0)), 0.0)
    return np.ceil(logs / (2.0 * epsilon)).astype(np.int64)


@dataclass
class EucbvState:
    """Round state for a batch of independent EUCBV lanes."""

    n_runs: int
    n_arms: int
    horizon: int
    rho: float
    psi: float
    radius_eps_power: int                 # epsilon power inside the radius log
    max_rounds: int                       # M; rounds never exceed M+1
    m: np.ndarray                         # (R,) round index
    epsilon: np.ndarray                   # (R,) 2**-m, exact
    quota: np.ndarray                     # (R,) n_m
    deadline: np.ndarray                  # (R,) N_m
    active: np.ndarray                    # (R, K) bool
    stats: PullStats
    t: int = 0                            # pulls completed
    log_conf: np.ndarray = field(default=None)  # (R,) clamped radius log term

    def active_counts(self) -> np.ndarray:
        return self.active.sum(axis=1)


def _radius_log(state: EucbvState, epsilon: np.ndarray) -> np.ndarray:
    args = state.psi * state.horizon * epsilon ** state.radius_eps_power
    return np.where(args > 1.0, np.log(np.maximum(args, 1.0)), 0.0)


def eucbv_init(n_arms: int, horizon: int, rho: float = 0.5, psi: float | None = None,
               n_runs: int = 1, radius_eps_power: int = 2) -> EucbvState:
    """Fresh state: m=0, eps=1, all arms active, n_0, N_0 = K*n_0, M.

    psi defaults to T/K^2.  Rejects T <= K (the initialization pulls would
    not fit) and non-positive rho/psi; warns when T < K**2.4, where the
    gap-dependent guarantee lapses.
    """
    if n_arms < 2:
        raise ValueError("EUCBV needs at least 2 arms")
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
    max_rounds = math.floor(0.5 * math.log2(horizon / math.e))
    eps = np.ones(n_runs, dtype=np.float64)
    quota = _quota(psi, horizon, eps)
    state = EucbvState(
        n_runs=n_runs,
        n_arms=n_arms,
        horizon=horizon,
        rho=rho,
        psi=psi,
        radius_eps_power=radius_eps_power,
        max_rounds=max_rounds,
        m=np.zeros(n_runs, dtype=np.int64),
        epsilon=eps,
        quota=quota,
        deadline=n_arms * quota,
        active=np.ones((n_runs, n_arms), dtype=bool),
        stats=PullStats(n_runs, n_arms),
    )
    state.log_conf = _radius_log(state, eps)
    return state


def _radii(state: EucbvState) -> tuple:
    means = state.stats.means()
    conf = confidence_radius(
        state.stats.variances(), state.stats.counts, state.log_conf[:, None], state.rho
    )
    return means, conf


def eucbv_select(state: EucbvState) -> np.ndarray:
    """Per-lane arm maximizing mean + confidence over the active set.

    Ties resolve to the lowest index; a lane whose active set is a singleton
    returns that arm without touching the indices.
    """
    counts = state.active_counts()
    if counts.max() == 1:
        return np.argmax(state.active, axis=1)
    means, conf = _radii(state)
    scores = np.where(state.active, means + conf, _NEG_INF)
    return np.argmax(scores, axis=1)


def eucbv_eliminate(state: EucbvState, lanes: np.ndarray | None = None) -> EucbvState:
    """Remove active arms whose UCB falls strictly below the best active LCB.

    The max runs over all active arms including the candidate itself, so the
    arm attaining the best LCB always survives (its UCB >= its LCB).
    """
    means, conf = _radii(state)
    ucb = means + conf
    lcb_best = np.where(state.active, means - conf, _NEG_INF).max(axis=1)
    drop = state.active & (ucb < lcb_best[:, None])
    if lanes is not None:
        drop &= lanes[:, None]
    state.active &= ~drop
    return state


def eucbv_advance_round(state: EucbvState, t: int,
                        lanes: np.ndarray | None = None) -> EucbvState:
    """Round reset for lanes with t >= N_m and m <= M: halve epsilon, set
    n_{m+1}, N_{m+1} = t + |B| * n_{m+1}, increment m.  Otherwise no-op."""
    adv = (t >= state.deadline) & (state.m <= state.max_rounds)
    if lanes is not None:
        adv &= lanes
    if not adv.any():
        return state
    state.epsilon[adv] *= 0.5
    new_quota = _quota(state.psi, state.horizon, state.epsilon[adv])
    state.quota[adv] = new_quota
    state.deadline[adv] = t + state.active[adv].sum(axis=1) * new_quota
    state.m[adv] += 1
    state.log_conf[adv] = _radius_log(state, state.epsilon[adv])
    return state


class EucbvPolicy(BatchPolicy):
    """EUCBV behind the sequential policy contract."""

    policy_id = "eucbv"

    def __init__(self, n_runs: int, n_arms: int, horizon: int, rng=None,
                 rho: float = 0.5, psi: float | None = None,
                 radius_eps_power: int = 2):
        super().__init__(n_runs, n_arms, horizon, rng)
        self.state = eucbv_init(n_arms, horizon, rho=rho, psi=psi, n_runs=n_runs,
                                radius_eps_power=radius_eps_power)
        self.stats = self.state.stats  # shared accumulator

    def _select(self, t: int) -> np.ndarray:
        return eucbv_select(self.state)

    def _after_update(self, t: int, arms: np.ndarray, rewards: np.ndarray) -> None:
        self.state.t = t
        if t <= self.n_arms:
            return  # initialization phase: no elimination, no round resets
        # A lane already committed before this step only pulls; a lane that
        # becomes a singleton during this step still runs this step's checks.
        not_committed = self.state.active_counts() > 1
        if not_committed.any():
            eucbv_eliminate(self.state, not_committed)
            eucbv_advance_round(self.state, t, not_committed)

    def survivors(self) -> np.ndarray:
        counts = self.state.active_counts()
        only = np.argmax(self.state.active, axis=1)
        return np.where(counts == 1, only, -1).astype(np.int64)
