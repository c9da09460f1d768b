"""Independent reference computations for the test suite.

Everything here is deliberately written against mpmath (50-digit precision)
or plain-Python brute force, never against the library's own float paths, so
an implementation bug cannot cancel out of both sides of an assertion.  The
exceptions are the policy references at the end.  The per-run round-policy
references (DMED, UCB-Improved, Median Elimination) share only
``kl_bernoulli`` with the library, so the lane-vectorized policies can be
checked pull for pull.  The batched EUCBV and UCB-V references recompute
every cell from ``PullStats`` each step, with no per-cell cache, mask or
deadline scalar; EUCBV's shares the policy's constructor and round tables,
so the two can be checked step for step and bit for bit.  The
scalar stream (``mix64``, ``derive_key``, ``RngStream``) shares nothing with
the library: it hashes and draws one Python-int value at a time, so
``StreamBatch``'s array finalizer, key derivation and draws can be checked
value for value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from eucbv.policies import BatchPolicy, EucbvPolicy, confidence_radius as _radius
from eucbv.policies.kl import kl_bernoulli as _kl_bernoulli

mp.dps = 50


def mp_log(x) -> mpf:
    return mp.log(mpf(x))


def clamped_log(x) -> mpf:
    return mp.log(mpf(x)) if mpf(x) > 1 else mpf(0)


def round_quota(psi, horizon, epsilon) -> int:
    """ceil(clamped_log(psi*T*eps^2) / (2 eps)) in extended precision.

    psi*T*eps^2 is formed as an exact rational and clamped against 1 before
    any rounding, so a ``Fraction`` psi such as T/K^2 is taken at its real
    value (a float psi is taken at its exact binary value).
    """
    arg = Fraction(psi) * horizon * Fraction(epsilon) ** 2
    log_arg = mp.log(mpf(arg.numerator) / arg.denominator) if arg > 1 else mpf(0)
    return int(mp.ceil(log_arg / (2 * mpf(epsilon))))


def round_cap(horizon) -> int:
    """floor(log2(T/e) / 2)."""
    return int(mp.floor(mp.log(mpf(horizon) / mp.e, 2) / 2))


def confidence_radius(v_hat, pulls, psi, horizon, epsilon, rho, eps_power=2) -> float:
    arg = mpf(psi) * horizon * mpf(epsilon) ** eps_power
    return float(mp.sqrt(mpf(rho) * (mpf(v_hat) + 2) * clamped_log(arg) / (4 * mpf(pulls))))


def ucb1_index(mean, pulls, t) -> float:
    return float(mpf(mean) + mp.sqrt(2 * mp_log(t) / mpf(pulls)))


def ucbv_index(mean, variance, pulls, t) -> float:
    lt = mp_log(t)
    return float(mpf(mean) + mp.sqrt(2 * mpf(variance) * lt / mpf(pulls))
                 + 3 * lt / (2 * mpf(pulls)))


def moss_index(mean, pulls, horizon, n_arms) -> float:
    explore = max(mp_log(mpf(horizon) / (n_arms * mpf(pulls))), mpf(0))
    return float(mpf(mean) + mp.sqrt(explore / mpf(pulls)))


def ocucb_index(mean, pulls, horizon, alpha=3.0, psi=2.0) -> float:
    explore = max(mp_log(mpf(psi) * horizon / mpf(pulls)), mpf(0))
    return float(mpf(mean) + mp.sqrt(mpf(alpha) * explore / mpf(pulls)))


def kl_bernoulli(p, q) -> float:
    p, q = mpf(p), mpf(q)
    eps = mpf(10) ** -15
    p = min(max(p, eps), 1 - eps)
    q = min(max(q, eps), 1 - eps)
    return float(p * mp.log(p / q) + (1 - p) * mp.log((1 - p) / (1 - q)))


def klucb_index_slow(mean, pulls, t, tol=1e-12) -> float:
    """KL inversion by plain interval halving at tighter tolerance."""
    rhs = max(math.log(t / pulls), 0.0) / pulls
    lo, hi = mean, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if kl_bernoulli(mean, mid) <= rhs:
            lo = mid
        else:
            hi = mid
    return lo


def two_pass_variance(rewards) -> float:
    """Definition-style biased variance: (1/z) * sum((x - mean)^2)."""
    z = len(rewards)
    mean = mpf(0)
    for x in rewards:
        mean += mpf(x)
    mean /= z
    acc = mpf(0)
    for x in rewards:
        acc += (mpf(x) - mean) ** 2
    return float(acc / z)


def gap_independent_bound(n_arms, horizon, c3=1.0) -> float:
    return float(mpf(c3) * mpf(n_arms) ** 5 / mpf(horizon) ** mpf("0.25")
                 + 80 * mp.sqrt(mpf(n_arms) * horizon))


def eucbv_dominant_term(gap, variance, n_arms, horizon) -> float:
    return float(320 * mpf(variance) * clamped_log(mpf(horizon) * mpf(gap) ** 2 / n_arms)
                 / mpf(gap))


def lemma1_ratio(n_arms, horizon, m, rho=0.5) -> float:
    psi = mpf(horizon) / mpf(n_arms) ** 2
    return float(mpf(rho) * m * mp.log(2) / (mp.log(psi * horizon) - 2 * m * mp.log(2)))


def bernstein_bound(psi, horizon, epsilon, rho) -> float:
    return float(2 / (mpf(psi) * horizon * mpf(epsilon)) ** (3 * mpf(rho) / 2))


# Scalar stream reference: the counter-based stream of ``eucbv.rng`` drawn
# one Python-int splitmix64 value at a time.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 output finalizer on a Python integer (mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(master_seed: int, run_index: int, domain: int = 0) -> int:
    """Stream key of (master_seed, run_index, domain): three chained mix64s.
    Domain 0 is rewards, 1 policy randomness, 2 environment generation."""
    if run_index < 0:
        raise ValueError("run_index must be >= 0")
    return mix64(mix64(mix64(master_seed & _MASK64) ^ (run_index & _MASK64)) ^ domain)


class RngStream:
    """A single counter-based stream (one owner; never shared).

    ``counter`` records how many draws have been consumed; replaying from the
    same key always yields the same sequence.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = key & _MASK64
        self.counter = counter

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        self.counter += 1
        bits = mix64((self.key + self.counter * _GOLDEN) & _MASK64)
        return (bits >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform draws as a float64 array (``n`` calls of uniform)."""
        return np.array([self.uniform() for _ in range(n)], dtype=np.float64)


def box_muller(u1: float, u2: float) -> float:
    """Standard normal from two uniforms in [0, 1)."""
    return float(np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))


def gamma_row(stream: RngStream, shape) -> np.ndarray:
    """One lane of ``StreamBatch.gamma_block``: Marsaglia-Tsang trials, each
    drawing 3*C uniforms from ``stream`` (a u1 block, a u2 block and a u3
    block, with normals from u1/u2 pairs), until every cell has accepted;
    a cell keeps its first accepted value."""
    shape = np.asarray(shape, dtype=np.float64)
    n = shape.size
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.full(n, np.nan)
    pending = np.ones(n, dtype=bool)
    while pending.any():
        u = stream.uniforms(3 * n)
        x = np.array([box_muller(u[i], u[n + i]) for i in range(n)])
        v = (1.0 + c * x) ** 3
        for i in range(n):
            if pending[i] and v[i] > 0.0 and (
                    np.log(u[2 * n + i]) < 0.5 * x[i] * x[i] + d[i] - d[i] * v[i]
                    + d[i] * np.log(v[i])):
                out[i] = d[i] * v[i]
                pending[i] = False
    return out


def gamma_rows(batch, shape) -> np.ndarray:
    """``StreamBatch.gamma_block`` of the (R, C) array ``shape`` on the
    lanes of ``batch``, written as whole-row trials: each trial every lane
    with a pending cell draws its 3*C uniforms through the batch's own
    ``uniform_block``, every cell of the row is computed and re-tested, and
    a cell keeps its first accepted value.  The float expressions are the
    library's, term for term; only the retry cut is absent."""
    shape = np.asarray(shape, dtype=np.float64)
    n_runs, n = shape.shape
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.full((n_runs, n), np.nan)
    pending = np.ones((n_runs, n), dtype=bool)
    lanes = np.arange(n_runs)
    with np.errstate(divide="ignore", invalid="ignore"):
        while lanes.size:
            rows = type(batch)(batch.keys[lanes])
            rows.counters[:] = batch.counters[lanes]
            u = rows.uniform_block(3 * n)
            batch.counters[lanes] = rows.counters
            x = np.sqrt(-2.0 * np.log1p(-u[:, :n])) * np.cos(2.0 * np.pi * u[:, n:2 * n])
            dd = d[lanes]
            v = (1.0 + c[lanes] * x) ** 3
            accept = pending[lanes] & (v > 0.0) & (
                np.log(u[:, 2 * n:]) < 0.5 * x * x + dd - dd * v
                + dd * np.log(np.where(v > 0.0, v, 1.0)))
            won = np.zeros_like(pending)
            won[lanes] = accept
            out[won] = (dd * v)[accept]
            pending &= ~won
            lanes = lanes[pending[lanes].any(axis=1)]
    return out


# Per-run scalar transcriptions of the round-structured policies: one
# select(t) -> arm / update(arm, reward) pair per step, with the queues and
# active sets kept as Python lists.

class _ScalarPolicy:
    def __init__(self, n_arms: int, horizon: int):
        if n_arms < 2:
            raise ValueError("policies need at least 2 arms")
        if horizon < n_arms:
            raise ValueError("horizon must cover the initialization pulls")
        self.n_arms = n_arms
        self.horizon = horizon
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.sums = np.zeros(n_arms, dtype=np.float64)

    def update(self, arm: int, reward: float) -> None:
        self.counts[arm] += 1
        self.sums[arm] += reward
        self._after_update(arm, reward)

    def _after_update(self, arm: int, reward: float) -> None:
        pass

    def survivor(self):
        return None

    def pull_counts(self) -> np.ndarray:
        return self.counts.copy()


class DmedPolicy(_ScalarPolicy):
    """Deterministic minimum empirical divergence, Bernoulli divergence.

    Keeps a pull queue; when it empties at timestep t the next queue is the
    arms j with  z_j * kl(mean_j, mean_best) < ln(t) - ln(z_j), consumed in
    ascending arm order.  The empirical best always satisfies this
    (divergence 0), but if the rebuilt list comes out empty (z_j = t edge)
    the empirical best is pulled.
    """

    def __init__(self, n_arms, horizon):
        super().__init__(n_arms, horizon)
        self._queue = []
        self._head = 0

    def select(self, t: int) -> int:
        if t <= self.n_arms:
            return t - 1
        if self._head >= len(self._queue):
            self._rebuild(t)
        arm = self._queue[self._head]
        self._head += 1
        return arm

    def _rebuild(self, t: int) -> None:
        means = self.sums / self.counts
        best = float(means.max())
        lhs = self.counts * _kl_bernoulli(means, best)
        keep = lhs < (math.log(t) - np.log(self.counts))
        self._queue = np.nonzero(keep)[0].tolist()
        if not self._queue:
            self._queue = [int(np.argmax(means))]
        self._head = 0


class UcbImprovedPolicy(_ScalarPolicy):
    """Round-based elimination with a halving gap guess delta_tilde.

    Round m pulls every active arm up to n_m = ceil(2 ln(T d^2) / d^2) total
    pulls (d = delta_tilde, logs clamped at 0), then removes arms with
    mean_i + c < max_j(mean_j - c) for c = sqrt(ln(T d^2) / (2 n_m)) and
    halves d, for at most floor(log2(T/e)/2) rounds.  After the final round
    (or on a singleton) it keeps cycling the surviving arms.
    """

    def __init__(self, n_arms, horizon):
        super().__init__(n_arms, horizon)
        self.delta_tilde = 1.0
        self.round = 0
        self.max_rounds = math.floor(0.5 * math.log2(horizon / math.e))
        self.active = list(range(n_arms))
        self._cursor = 0
        self._quota = self._quota_for(self.delta_tilde)

    def _quota_for(self, d: float) -> int:
        log_term = max(math.log(self.horizon * d * d), 0.0)
        return max(1, math.ceil(2.0 * log_term / (d * d)))

    def select(self, t: int) -> int:
        if t <= self.n_arms:
            return t - 1
        if len(self.active) == 1:
            return self.active[0]
        # Next active arm below quota, cycling from the cursor; if every arm
        # met the quota (rounds exhausted) fall back to plain round-robin.
        n = len(self.active)
        for k in range(n):
            arm = self.active[(self._cursor + k) % n]
            if self.counts[arm] < self._quota:
                self._cursor = (self._cursor + k + 1) % n
                return arm
        arm = self.active[self._cursor % n]
        self._cursor = (self._cursor + 1) % n
        return arm

    def _after_update(self, arm, reward):
        if len(self.active) == 1 or self.round > self.max_rounds:
            return
        if self.counts[arm] < self._quota:
            return
        idx = np.array(self.active)
        if int(self.counts[idx].min()) < self._quota:
            return
        # Round complete: eliminate, then halve the gap guess.
        log_term = max(math.log(self.horizon * self.delta_tilde ** 2), 0.0)
        c = math.sqrt(log_term / (2.0 * self._quota))
        means = self.sums[idx] / self.counts[idx]
        threshold = float((means - c).max())
        self.active = [a for a, m in zip(self.active, means) if not (m + c < threshold)]
        self.delta_tilde *= 0.5
        self.round += 1
        self._cursor = 0
        if self.round <= self.max_rounds:
            self._quota = self._quota_for(self.delta_tilde)

    def survivor(self):
        return self.active[0] if len(self.active) == 1 else None


class MedianElimPolicy(_ScalarPolicy):
    """Median elimination with accuracy eps and confidence delta.

    Round l samples every surviving arm n_l = ceil(4/eps_l^2 * ln(3/delta_l))
    times using fresh per-round estimates, drops the arms strictly below the
    round's median mean, then sets eps_{l+1} = 3/4 eps_l, delta_{l+1} =
    delta_l / 2.  The t <= K initialization pulls seed round 1's counts.
    """

    def __init__(self, n_arms, horizon, epsilon: float = 0.1, delta: float = 0.1):
        super().__init__(n_arms, horizon)
        if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
            raise ValueError("median-elim needs epsilon, delta in (0, 1)")
        self.surviving = list(range(n_arms))
        self.eps_l = epsilon / 4.0
        self.delta_l = delta / 2.0
        self._round_counts = np.zeros(n_arms, dtype=np.int64)
        self._round_sums = np.zeros(n_arms, dtype=np.float64)
        self._cursor = 0
        self._quota = self._quota_for()

    def _quota_for(self) -> int:
        return max(1, math.ceil(4.0 / self.eps_l ** 2 * math.log(3.0 / self.delta_l)))

    def select(self, t: int) -> int:
        if t <= self.n_arms:
            return t - 1
        if len(self.surviving) == 1:
            return self.surviving[0]
        n = len(self.surviving)
        for k in range(n):
            arm = self.surviving[(self._cursor + k) % n]
            if self._round_counts[arm] < self._quota:
                self._cursor = (self._cursor + k + 1) % n
                return arm
        arm = self.surviving[self._cursor % n]
        self._cursor = (self._cursor + 1) % n
        return arm

    def _after_update(self, arm, reward):
        if len(self.surviving) == 1:
            return
        self._round_counts[arm] += 1
        self._round_sums[arm] += reward
        if self._round_counts[arm] < self._quota:
            return
        idx = np.array(self.surviving)
        if int(self._round_counts[idx].min()) < self._quota:
            return
        means = self._round_sums[idx] / self._round_counts[idx]
        med = float(np.median(means))
        self.surviving = [a for a, m in zip(self.surviving, means) if m >= med]
        self.eps_l *= 0.75
        self.delta_l *= 0.5
        self._quota = self._quota_for()
        self._round_counts[:] = 0
        self._round_sums[:] = 0.0
        self._cursor = 0

    def survivor(self):
        return self.surviving[0] if len(self.surviving) == 1 else None


# Batched references with no per-cell state: every step recomputes all
# R x K cells from the sums, counts and square sums.

class UnmaskedEucbv(EucbvPolicy):
    """EUCBV scoring every cell afresh each step: selection and elimination
    mask the bounds with ``np.where(active, ., -inf)``, and every step reads
    every lane's deadline, round and liveness."""

    def _bounds(self):
        stats = self.stats
        means = stats.means()
        radius = _radius(stats.variances(means), stats.counts,
                         self._log_conf[self.m][:, None], self.rho)
        return means + radius, means - radius

    def _select(self, t):
        upper, _ = self._bounds()
        return np.argmax(np.where(self.active, upper, -np.inf), axis=1)

    def _after_update(self, t, cells, rewards):
        if t <= self.n_arms:
            return
        live = self.active.sum(axis=1) > 1
        due = np.flatnonzero((t >= self.deadline) & (self.m <= self.max_rounds) & live)
        upper, lower = self._bounds()
        best = np.where(self.active, lower, -np.inf).max(axis=1)
        self.active &= ~(upper < best[:, None])
        self.m[due] += 1
        self.deadline[due] = t + self.active[due].sum(axis=1) * self._quotas[self.m[due]]


class RecomputeUcbv(BatchPolicy):
    """UCB-V's mean + sqrt(2 v ln t / z) + 3 ln t / (2 z) as one numpy
    expression over all cells each step."""

    def _select(self, t):
        stats = self.stats
        means = stats.means()
        variances, pulls, log_t = stats.variances(means), stats.counts, math.log(t)
        scores = means + np.sqrt(2.0 * variances * log_t / pulls) + 3.0 * log_t / (2.0 * pulls)
        return np.argmax(scores, axis=1)
