"""Bernoulli KL divergence utilities and the KL-UCB+ index policy.

The KL-UCB+ index of an arm is the largest q in [mean, 1] with

    z * kl(mean, q) <= ln(t / z)

found by bisection to within 1e-9.  Means are clamped into
[1e-15, 1 - 1e-15] so the divergence stays finite at the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy

_EPS = 1e-15
KLUCB_TOL = 1e-9
# The bracket is never wider than 1, so this many halvings reach KLUCB_TOL.
_KLUCB_ITERS = math.ceil(math.log2(1.0 / KLUCB_TOL))


def kl_bernoulli(p, q):
    """KL(Bern(p) || Bern(q)), elementwise; boundary-safe via clamping."""
    p = np.clip(p, _EPS, 1.0 - _EPS)
    q = np.clip(q, _EPS, 1.0 - _EPS)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def klucb_index(mean, pulls, t):
    """KL-UCB+ upper confidence index, scalar or vectorized over arms/lanes.

    Bisection on [mean, 1].  Every cell takes the same ceil(log2(1/KLUCB_TOL))
    = 30 halvings, a count that reads no data: a cell's index never depends
    on the other cells of the array it is computed in.
    """
    scalar = np.ndim(mean) == 0 and np.ndim(pulls) == 0
    mean = np.clip(np.atleast_1d(np.asarray(mean, dtype=np.float64)), _EPS, 1.0 - _EPS)
    pulls = np.atleast_1d(np.asarray(pulls, dtype=np.float64))
    rhs = np.maximum(np.log(t / pulls), 0.0) / pulls
    lo = mean.copy()
    # Pinsker: kl(p, q) >= 2(p-q)^2, so the root is at most p + sqrt(rhs/2);
    # starting the bracket there narrows it and pins the zero-allowance case
    # (rhs = 0) at the mean exactly.
    width = np.minimum(mean + np.sqrt(0.5 * rhs), 1.0)
    width -= lo
    # kl(p, q) <= rhs  <=>  p ln q + (1-p) ln(1-q) >= entropy_term - rhs
    target = mean * np.log(mean) + (1.0 - mean) * np.log1p(-mean) - rhs
    comp = 1.0 - mean
    mid = np.empty_like(mean)
    w1 = np.empty_like(mean)
    w2 = np.empty_like(mean)
    # Width-form bisection: the bracket is [lo, lo + width]; accepting a
    # midpoint sets lo += width (identical float sum, so lo lands exactly on
    # the midpoint).  When the bracket tightens onto 1.0 the midpoint rounds
    # to exactly 1.0 and log1p(-1) = -inf; the comparison still resolves
    # correctly (midpoint rejected), so the divide warning is noise.
    with np.errstate(divide="ignore"):
        for _ in range(_KLUCB_ITERS):
            width *= 0.5
            np.add(lo, width, out=mid)
            np.log(mid, out=w1)
            w1 *= mean
            np.log1p(np.negative(mid, out=w2), out=w2)
            w2 *= comp
            w1 += w2
            ok = w1 >= target
            np.multiply(width, ok, out=w1)
            lo += w1
    return float(lo[0]) if scalar else lo


class KlUcbPlusPolicy(BatchPolicy):
    policy_id = "klucb-plus"

    def _select(self, t):
        scores = klucb_index(self.stats.means(), self.stats.counts, t)
        return np.argmax(scores, axis=1)
