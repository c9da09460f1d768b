"""Regret-bound calculators and numerical lemma verifiers.

The calculators take an ``Environment`` and a horizon ``(env, horizon)`` and
read the arms' gaps and variances from it; ``make_environment`` has already
checked them.  The gap-dependent bound evaluated here is

    sum_{gap_i > b} [ C0*K^4/T^(1/4) + gap_i + 320*var_i*ln(T*gap_i^2/K)/gap_i ]
    + sum_{0 < gap_i <= b} C2*K^4/T^(1/4)
    + max_{0 < gap_i <= b} gap_i * T

valid for thresholds b >= sqrt(e/T); the gap-independent form is
C3*K^5/T^(1/4) + 80*sqrt(K*T).  C0, C2, C3 are unspecified integer constants
in the source analysis: C0 and C2 are fixed at 1, C3 is a keyword (default
1), and outputs are "up to unspecified constants".  Logs clamp at 0 when
their argument <= 1.  The arithmetic runs on Python floats, so an overflow
raises ``OverflowError`` instead of turning into inf.

The lemma verifiers evaluate the analysis' deterministic inequalities over
parameter grids and report violations instead of assuming them; the
concentration check estimates a one-sided deviation probability by Monte
Carlo and compares it against the stated bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Environment
from .policies.eucbv import confidence_radius, round_cap
from .rng import StreamBatch

_LN2 = math.log(2.0)


def _clamped_log(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def eucbv_dominant_term(gap: float, variance: float, n_arms: int, horizon: int) -> float:
    """The per-arm dominant term 320 * var * ln(T*gap^2/K) / gap (log clamped)."""
    if gap <= 0.0:
        raise ValueError("dominant term defined for positive gaps only")
    return 320.0 * variance * _clamped_log(horizon * gap * gap / n_arms) / gap


def eucbv_gap_dependent_bound(env: Environment, horizon: int, b: float | None = None) -> float:
    """Evaluate the gap-dependent regret bound (C0 = C2 = 1) at threshold
    ``b``, by default its least valid value sqrt(e/T)."""
    _check_horizon(horizon)
    floor = math.sqrt(math.e / horizon)
    if b is None:
        b = floor
    elif b < floor * (1.0 - 1e-12):
        raise ValueError(f"threshold b={b} violates the validity range b >= sqrt(e/T) = {floor}")
    K = env.n_arms
    k4 = K ** 4 / horizon ** 0.25
    gaps = env.gaps.tolist()
    total = 0.0
    for gap, var in zip(gaps, env.variances.tolist()):
        if gap > b:
            total += k4 + gap + eucbv_dominant_term(gap, var, K, horizon)
    small = [g for g in gaps if 0.0 < g <= b]
    total += len(small) * k4
    if small:
        total += max(small) * horizon
    return total


def gap_independent_bound(n_arms: int, horizon: int, c3: float = 1.0) -> float:
    """C3*K^5/T^(1/4) + 80*sqrt(K*T)."""
    _check_horizon(horizon)
    return c3 * n_arms ** 5 / horizon ** 0.25 + 80.0 * math.sqrt(n_arms * horizon)


def table1_bounds(env: Environment, horizon: int) -> list:
    """Comparison-table rows: (algorithm, gap_dependent, gap_independent).

    Evaluates each algorithm's bound functional form with every unspecified
    constant set to 1; Delta is the minimal positive gap.
    """
    _check_horizon(horizon)
    K, T = env.n_arms, horizon
    pos = [g for g in env.gaps.tolist() if g > 0.0]
    if not pos:
        raise ValueError("need at least one suboptimal arm")
    delta = min(pos)
    smax = max(env.variances.tolist())
    # OCUCB: ln(T/H_i)/gap_i with H_i = sum_j min(1/gap_i^2, 1/gap_j^2) over
    # the suboptimal arms j
    ocucb_dep = sum(
        _clamped_log(T / sum(min(1.0 / g ** 2, 1.0 / h ** 2) for h in pos)) / g
        for g in pos
    )
    return [
        ("eucbv", K * smax * _clamped_log(T * delta ** 2 / K) / delta, math.sqrt(K * T)),
        ("moss", K ** 2 * _clamped_log(T * delta ** 2 / K) / delta, math.sqrt(K * T)),
        ("ocucb", ocucb_dep, math.sqrt(K * T)),
        ("ucb-improved", K * _clamped_log(T * delta ** 2) / delta,
         math.sqrt(K * T * math.log(K))),
        ("ucb1", K * math.log(T) / delta, math.sqrt(K * T * math.log(T))),
        ("ucbv", K * smax * math.log(T) / delta, math.sqrt(K * T * math.log(T))),
    ]


# ---------------------------------------------------------------------------
# Lemma verifiers


@dataclass(frozen=True)
class GridReport:
    """Outcome of sweeping an inequality over a parameter grid."""

    name: str
    points: int
    skipped: int
    violations: tuple
    worst_margin: float  # max of (lhs - rhs); <= 0 everywhere means it holds
    worst_point: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _report(name: str, cases) -> GridReport:
    """Sweep ``cases`` into a report.  A case is None for a point out of
    regime, else (point, lhs - rhs, violation or None); the worst point is
    the first one of largest margin."""
    points = skipped = 0
    violations = []
    worst = -math.inf
    worst_point = ()
    for case in cases:
        if case is None:
            skipped += 1
            continue
        point, margin, violation = case
        points += 1
        if margin > worst:
            worst, worst_point = margin, point
        if violation is not None:
            violations.append(violation)
    return GridReport(name, points, skipped, tuple(violations), worst, worst_point)


def default_k_grid() -> tuple:
    return (2, 4, 8, 16, 32, 64)


def default_t_grid(n_arms: int, t_max: int = 10 ** 7, points: int = 25) -> tuple:
    """Log-spaced horizons from ceil(K^2.4) to t_max."""
    t_min = math.ceil(n_arms ** 2.4)
    if t_min >= t_max:
        return (t_min,)
    ts = np.unique(
        np.round(np.exp(np.linspace(math.log(t_min), math.log(t_max), points)))
    ).astype(np.int64)
    return tuple(int(t) for t in ts if t >= t_min)


def lemma1_ratio(n_arms: int, horizon: int, m: int, rho: float = 0.5) -> float:
    """rho*m*ln2 / (ln(psi*T) - 2m*ln2) with psi = T/K^2."""
    psi = horizon / (n_arms * n_arms)
    denom = math.log(psi * horizon) - 2.0 * m * _LN2
    return rho * m * _LN2 / denom


def verify_lemma1(ks=None, t_max: int = 10 ** 7, t_points: int = 25) -> GridReport:
    """Check rho*m*ln2/(ln(psi T) - 2m ln2) <= 3/2 over the admissible grid.

    Admissible: T >= K^2.4, psi = T/K^2, rho = 1/2, 0 <= m <= log2(T/e)/2;
    the horizon grid starts at ceil(K^2.4), so every point is in regime.
    """
    def cases():
        for k in ks or default_k_grid():
            for t in default_t_grid(k, t_max, t_points):
                for m in range(round_cap(t) + 1):
                    ratio = lemma1_ratio(k, t, m)
                    yield (k, t, m), ratio - 1.5, (k, t, m, ratio) if ratio > 1.5 else None

    return _report("lemma1", cases())


def elimination_round(gap: float) -> int:
    """m_i = min{m : sqrt(4 * 2^-m) < gap/4}."""
    if not 0.0 < gap:
        raise ValueError("gap must be positive")
    m = 0
    while not math.sqrt(4.0 * 2.0 ** -m) < gap / 4.0:
        m += 1
    return m


def verify_lemma2(ks=None, t_max: int = 10 ** 7, t_points: int = 25) -> GridReport:
    """Check the confidence radius at round m_i stays below gap/4.

    At m_i = min{m : sqrt(4 eps_m) < gap/4}, with z = n_{m_i} =
    ln(psi T eps^2)/(2 eps) (the un-ceiled quota from the analysis) and the
    estimated variance at its maximum 1, verifies

        sqrt(rho * 3 * ln(psi T eps) / (4 n_{m_i})) < gap / 4

    for 20 log-spaced gaps in [0.01, 1].  Points whose m_i exceeds the round
    cap M, or whose quota is 0, are out of regime and skipped.
    """
    gaps = tuple(float(d) for d in np.geomspace(0.01, 1.0, 20))
    rho = 0.5

    def cases():
        for k in ks or default_k_grid():
            for t in default_t_grid(k, t_max, t_points):
                psi = t / (k * k)
                m_cap = round_cap(t)
                for gap in gaps:
                    m_i = elimination_round(gap)
                    eps = 2.0 ** -m_i
                    quota = _clamped_log(psi * t * eps * eps) / (2.0 * eps)
                    if m_i > m_cap or quota <= 0.0:
                        yield None
                        continue
                    radius = float(confidence_radius(
                        1.0, quota, _clamped_log(psi * t * eps), rho))
                    violation = None if radius < gap / 4.0 else (k, t, gap, radius)
                    yield (k, t, gap), radius - gap / 4.0, violation

    return _report("lemma2", cases())


def verify_lemma6(c_pairs=None, sigmas=None) -> GridReport:
    """Check the coefficient inequality c1*(4s + 4) <= c2*s over a grid.

    This is the comparison the analysis reduces to once the shared positive
    factor ln(T*gap^2/K)/gap is cancelled (requires T*gap^2/K > 1).  With
    c2 = 20*c1 it holds with equality at s = 1/4 and fails for any s < 1/4;
    failures are reported as data, not raised.
    """
    c_pairs = c_pairs or ((1, 20), (1, 40), (2, 40), (3, 60))
    sigmas = sigmas if sigmas is not None else (0.0, 0.05, 0.1, 0.15, 0.2, 0.24, 0.25)

    def cases():
        for c1, c2 in c_pairs:
            if not 20 * c1 <= c2:
                raise ValueError(f"pair ({c1}, {c2}) violates the premise 20*c1 <= c2")
            for s in sigmas:
                if not 0.0 <= s <= 0.25:
                    raise ValueError("sigma^2 must lie in [0, 1/4] for bounded rewards")
                lhs = c1 * (4.0 * s + 4.0)
                rhs = c2 * s
                yield (c1, c2, s), lhs - rhs, (c1, c2, s, lhs, rhs) if lhs > rhs else None

    return _report("lemma6", cases())


# ---------------------------------------------------------------------------
# Concentration (Bernstein-style tail) Monte-Carlo check


@dataclass(frozen=True)
class TailReport:
    """Monte-Carlo tail frequency vs. the stated concentration bound."""

    side: str
    pulls: int
    radius: float
    bound: float
    samples: int
    frequency: float
    threshold: float  # bound + 3 binomial standard errors at the bound

    @property
    def ok(self) -> bool:
        return self.frequency <= self.threshold


def check_bernstein_tail(mean: float, pulls: int, epsilon_m: float, psi: float,
                         horizon: int, rho: float, samples: int, rng: StreamBatch,
                         side: str = "upper") -> TailReport:
    """Estimate P(mean_hat deviates from the mean by the analysis radius)
    for a Bernoulli arm of this ``mean``, whose variance is mean*(1-mean).

    The radius is c = sqrt(rho*(sigma^2 + sqrt(eps_m) + 2)*ln(psi*T*eps_m) /
    (4*z)); the stated bound on the one-sided deviation probability is
    2/(psi*T*eps_m)^(3*rho/2).  Passes when the empirical frequency does not
    exceed the bound by more than 3 binomial standard errors (computed at the
    bound).  Doubling z can only shrink the true probability, which gives a
    paired secondary check.  ``rng`` is a one-lane stream; the check draws
    ``samples * pulls`` uniforms from it.
    """
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"a Bernoulli arm's mean must be in [0, 1], got {mean}")
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if pulls < 1 or samples < 1:
        raise ValueError("pulls and samples must be >= 1")
    log_term = _clamped_log(psi * horizon * epsilon_m)
    radius = float(confidence_radius(mean * (1.0 - mean) + math.sqrt(epsilon_m), pulls,
                                     log_term, rho))
    bound = 2.0 / (psi * horizon * epsilon_m) ** (1.5 * rho)
    draws = rng.uniform_block(samples * pulls)[0].reshape(samples, pulls)
    means = (draws < mean).mean(axis=1)
    if side == "upper":
        frequency = float((means > mean + radius).mean())
    else:
        frequency = float((means < mean - radius).mean())
    threshold = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / samples)
    return TailReport(side, pulls, radius, bound, samples, frequency, threshold)
