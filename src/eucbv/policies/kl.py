"""Bernoulli KL divergence utilities and the KL-UCB+ index policy.

The KL-UCB+ index of an arm is the largest q in [mean, 1] with

    z * kl(mean, q) <= ln(t / z)

found by bisection to within 1e-9.  Means are clamped into
[1e-15, 1 - 1e-15] so the divergence stays finite at the boundary.

``klucb_index`` runs all 30 halvings on every cell.  Selection reads only
each lane's argmax, so ``klucb_argmax`` (what ``KlUcbPlusPolicy`` calls)
first bounds every cell's index from a few Newton steps (``_bounds``),
certified against the halvings' own float test, and runs the halvings only
on the cells those bounds leave able to win, and only until each lane's
winner is proven.  On expt1 fewer than 1% of the steps halve at all.  Its
choice is the argmax of ``klucb_index``, ties included, under one numeric
assumption: the float value of m ln q + (1 - m) ln(1 - q) is within a
relative 2**-40 of the exact one (numpy's log and log1p are within a few
ulps, and the two terms share a sign).  Both share one bracket set-up
(``_bracket``), one feasibility sum (``_log_sum``) and one halving loop
(``_halve``).
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy

_EPS = 1e-15
KLUCB_TOL = 1e-9
# The bracket is never wider than 1, so this many halvings reach KLUCB_TOL.
_KLUCB_ITERS = math.ceil(math.log2(1.0 / KLUCB_TOL))
# klucb_argmax halves only the cells its certified bounds leave in
# contention, re-pruning after every _GROUP halvings.
_GROUP = 4
# _bounds takes _NEWTON Newton steps toward each root q and tests the points
# _NUDGE * (q - mean) to either side of it.  From its start, 3 steps leave
# fewer than 1% of expt1's steps to halve at 2**-24, and beat 4 steps at
# 2**-26 in alternating timings.
_NEWTON = 3
_NUDGE = 2.0 ** -24
# Relative float error assumed of m ln q + comp ln(1 - q): about 4000 ulps.
_EPS_A = 2.0 ** -40
_BELOW_ONE = 1.0 - 2.0 ** -53   # Newton starts below 1, where ln(1 - q) = -inf
# Absolute slack of the bounds lo + 2*width + _SLACK and top + _SLACK; it
# exceeds the 31 half-ulps of rounding a value <= 1 gains over the halvings.
_SLACK = 2.0 ** -40


def kl_bernoulli(p, q):
    """KL(Bern(p) || Bern(q)), elementwise; boundary-safe via clamping."""
    p = np.clip(p, _EPS, 1.0 - _EPS)
    q = np.clip(q, _EPS, 1.0 - _EPS)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def _bracket(mean, pulls, t) -> np.ndarray:
    """Bisection state of every cell of the same-shaped arrays ``mean`` and
    ``pulls`` (flattened): a (5, N) array whose rows are the clamped mean,
    1 - mean, the target, lo and width.  The bracket is [lo, lo + width]."""
    pulls = np.asarray(pulls, dtype=np.float64).reshape(-1)
    state = np.empty((5, pulls.size))
    m, comp, target, lo, width = state
    np.maximum(np.asarray(mean, dtype=np.float64).reshape(-1), _EPS, out=m)
    np.minimum(m, 1.0 - _EPS, out=m)
    np.subtract(1.0, m, out=comp)
    rhs = np.maximum(np.log(t / pulls), 0.0) / pulls
    lo[:] = m
    # Pinsker: kl(p, q) >= 2(p-q)^2, so the root is at most p + sqrt(rhs/2);
    # starting the bracket there narrows it and pins the zero-allowance case
    # (rhs = 0) at the mean exactly.
    np.minimum(m + np.sqrt(0.5 * rhs), 1.0, out=width)
    width -= lo
    # kl(p, q) <= rhs  <=>  p ln q + (1-p) ln(1-q) >= entropy_term - rhs
    np.subtract(m * np.log(m) + comp * np.log1p(-m), rhs, out=target)
    return state


def _log_sum(q, m, comp, out, tmp):
    """m ln q + comp ln(1 - q) into ``out``, by the float ops of the
    feasibility test: q passes iff the result is >= the target."""
    np.log(q, out=out)
    out *= m
    np.log1p(np.negative(q, out=tmp), out=tmp)
    tmp *= comp
    out += tmp
    return out


def _halve(state: np.ndarray, n: int) -> None:
    """Run ``n`` halvings of the width-form bisection on ``state`` in place.

    Each halving halves width and, when the midpoint lo + width is feasible,
    adds width to lo (the identical float sum, so lo lands exactly on the
    midpoint); lo only ever grows.  When the bracket tightens onto 1.0 the
    midpoint rounds to exactly 1.0 and log1p(-1) = -inf; the comparison
    still resolves correctly (midpoint rejected), so the divide warning is
    noise.
    """
    m, comp, target, lo, width = state
    mid, w1, w2 = np.empty((3, lo.size))
    with np.errstate(divide="ignore"):
        for _ in range(n):
            width *= 0.5
            np.add(lo, width, out=mid)
            ok = _log_sum(mid, m, comp, w1, w2) >= target
            np.multiply(width, ok, out=w1)
            lo += w1


def klucb_index(mean, pulls, t):
    """KL-UCB+ upper confidence index, scalar or vectorized over arms/lanes.

    Bisection on [mean, 1].  Every cell takes the same ceil(log2(1/KLUCB_TOL))
    = 30 halvings, a count that reads no data: a cell's index never depends
    on the other cells of the array it is computed in.
    """
    mean, pulls = np.broadcast_arrays(mean, pulls)
    state = _bracket(mean, pulls, t)
    _halve(state, _KLUCB_ITERS)
    return float(state[3, 0]) if mean.ndim == 0 else state[3].reshape(mean.shape)


def _contends(lo, width, best):
    """Cells whose final index can reach ``best``, a lower bound on their
    lane's maximum (the best lo in the lane)."""
    bound = width * 2.0
    bound += lo
    bound += _SLACK
    return bound >= best


def _distinct(lanes, state):
    """Mask of the cells (in flat order) whose bisection state differs from
    that of the cell before them in the same lane."""
    repeat = (state[:, 1:] == state[:, :-1]).all(axis=0)
    repeat &= lanes[1:] == lanes[:-1]
    keep = np.ones(lanes.size, dtype=bool)
    np.logical_not(repeat, out=keep[1:])
    return keep


def _bounds(state):
    """Per cell of an unhalved ``_bracket`` state, (lower, upper) with
    lower <= ``klucb_index`` < upper; ``klucb_argmax`` gives the proof."""
    m, comp, target, lo, width = state
    top = lo + width
    entropy, a, b = np.empty((3, lo.size))
    _log_sum(m, m, comp, entropy, a)   # the test's sum at q = m
    rhs = entropy - target
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Start at or above the root, where Newton descends monotonically:
        # the least of top, the root of comp ln(1 - q) = target (m ln q <= 0)
        # and that of (q - m)^2 / (2q) = rhs (kl(m, q) >= (q - m)^2 / (2q)).
        q = np.minimum(top, 1.0 - np.exp(target / comp))
        np.minimum(q, m + rhs + np.sqrt(rhs * (rhs + 2.0 * m)), out=q)
        np.minimum(q, _BELOW_ONE, out=q)
        for _ in range(_NEWTON):
            # q -= g / g' for g = m ln q + comp ln(1 - q) - target, whose
            # derivative is (m - q) / (q (1 - q)) as m + comp = 1
            rest = 1.0 - q
            g = np.log(q)
            g *= m
            g += np.log(rest) * comp
            g -= target
            rest *= q
            g *= rest
            g /= q - m
            q += g
        step = q - m
        step *= _NUDGE
        up = q + step
        ok = _log_sum(up, m, comp, a, b) * (1.0 - 4.0 * _EPS_A) < target
        ok &= up > m
        upper = np.where(ok, up, top + _SLACK)
        low = np.minimum(q - step, top)
        ok = _log_sum(low, m, comp, a, b) * (1.0 + 4.0 * _EPS_A) >= target
        ok &= entropy * (1.0 + 4.0 * _EPS_A) >= target
        low -= width * 2.0 ** -_KLUCB_ITERS
        low -= _SLACK
        lower = np.where(ok, low, m)
    return lower, upper


def klucb_argmax(mean, pulls, t) -> np.ndarray:
    """Per lane, the column argmax (lowest index on ties) of
    ``klucb_index(mean, pulls, t)`` for (R, K) arrays, bit for bit.

    ``_bounds`` gives every cell a lower and an upper bound on its index; a
    cell contends iff its upper bound reaches its lane's best lower bound.
    The contenders enter the bisection from their unhalved bracket: until
    every lane has one cell left or the cells have taken all 30 halvings, a
    cell whose whole bisection state equals that of the cell before it in
    its lane is folded, and the rest take _GROUP halvings and are pruned
    again, now by the bound lo + 2*width + 2**-40.  The choice is the lane's
    one cell, or else the argmax of the cells' lo with -inf elsewhere.

    Write A(q) = -(m ln q + comp ln(1 - q)) as ``_log_sum`` computes it, so a
    midpoint q passes iff fl(A(q)) <= -target.  A is convex on (0, 1), and
    fl(A) is within a relative eps = 2**-40 of A; 4 eps covers the ratio
    (1 + eps) / (1 - eps) of two evaluations and the rounding of the
    product.  ``_bracket`` computes -target as fl(A(m)) + rhs, so m passes.
    The choice is exact:

    - Upper bound.  Newton gives q; U = q + (q - m) * _NUDGE.  If U > m and
      fl(A(U)) * (1 - 4 eps) > -target >= fl(A(m)), then A(U) > A(m), so by
      convexity A increases from U on and no point >= U passes: the final
      index, m or a passing midpoint, is < U.  Otherwise the bound is
      top + 2**-40, above the bracket's top by more than its rounding.
    - Lower bound.  L = min(q - (q - m) * _NUDGE, top).  If
      fl(A) * (1 + 4 eps) <= -target at L and at m, then by convexity every
      midpoint in [m, L] passes.  A halving keeps L in its bracket, up to a
      half-ulp: either its midpoint is <= L and lo moves there, or the
      bracket's new top is that midpoint.  So the final lo is at least
      L - width * 2**-30 - 2**-40.  Otherwise the bound is m, where lo starts.
    - A cell whose upper bound is below its lane's best lower bound ends
      strictly below the lane's maximum, so it can neither win nor tie.
    - A cell's final index is at least its lo after k halvings, because
      every later step adds a non-negative width and rounding is monotone.
      It is at most lo_k + width_k plus 30 half-ulps of rounding, less than
      2**-48 for values <= 1, so the 2**-40 term covers cells whose width_k
      is below one ulp (means at the 1 - 1e-15 clamp, say).
    - A folded cell takes the same steps as the lower column it equals, so
      its final index is bit-identical and it never wins a tie.  Cells with
      the same clamped mean and pull count have equal states at every step;
      one that is not next to its twin is folded once the cells between
      them are dropped, or else ends equal to it and loses the tie.
    - Every test reads only the lane's own row, so the choice depends
      neither on batch mates, nor on the chunk width, nor on when the loop
      stops for other lanes.
    - A cell that takes all 30 halvings ends at ``klucb_index`` bit for bit;
      the ufuncs run on contiguous arrays whatever the gather.
    """
    n_runs, n_arms = np.shape(mean)
    state = _bracket(mean, pulls, t)
    lower, upper = (b.reshape(n_runs, n_arms) for b in _bounds(state))
    alive = np.flatnonzero(upper >= lower.max(axis=1, keepdims=True))
    state = state[:, alive]
    done = 0
    while True:
        lanes = alive // n_arms
        keep = _distinct(lanes, state)
        alive, lanes, state = alive[keep], lanes[keep], state[:, keep]
        if alive.size == n_runs:  # one cell per lane
            return alive - lanes * n_arms
        if done == _KLUCB_ITERS:
            break
        steps = min(_GROUP, _KLUCB_ITERS - done)
        _halve(state, steps)
        done += steps
        best = np.full(n_runs, -np.inf)
        np.maximum.at(best, lanes, state[3])
        keep = _contends(state[3], state[4], best[lanes])
        alive, state = alive[keep], state[:, keep]
    scores = np.full(n_runs * n_arms, -np.inf)
    scores[alive] = state[3]
    return np.argmax(scores.reshape(n_runs, n_arms), axis=1)


class KlUcbPlusPolicy(BatchPolicy):
    def _select(self, t):
        return klucb_argmax(self.stats.means(), self.stats.counts, t)
