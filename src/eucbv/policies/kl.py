"""Bernoulli KL divergence utilities and the KL-UCB+ index policy.

The KL-UCB+ index of an arm is the largest q in [mean, 1] with

    z * kl(mean, q) <= ln(t / z)

found by bisection to within 1e-9.  Means are clamped into
[1e-15, 1 - 1e-15] so the divergence stays finite at the boundary.

``klucb_index`` runs all 30 halvings on every cell.  Selection reads only
each lane's argmax, so ``klucb_argmax`` (what ``KlUcbPlusPolicy`` calls)
runs the same halvings only on the cells that can still win, and only until
each lane's winner is proven; its choice is the argmax of ``klucb_index``,
ties included.  Both share one bracket set-up (``_bracket``) and one halving
loop (``_halve``).
"""

from __future__ import annotations

import math

import numpy as np

from .base import BatchPolicy

_EPS = 1e-15
KLUCB_TOL = 1e-9
# The bracket is never wider than 1, so this many halvings reach KLUCB_TOL.
_KLUCB_ITERS = math.ceil(math.log2(1.0 / KLUCB_TOL))
# klucb_argmax halves every cell _PRUNE_AT times, then only the cells that
# can still win, re-pruning after every _GROUP halvings.  Pruning after 6,
# 8 or 12 halvings was measured no faster than after 10 on expt1.
_PRUNE_AT = 10
_GROUP = 4
# Absolute slack of the prune bound lo + 2*width + _SLACK; it exceeds the
# 30 half-ulps of rounding a value <= 1 can gain over its remaining width.
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
            np.log(mid, out=w1)
            w1 *= m
            np.log1p(np.negative(mid, out=w2), out=w2)
            w2 *= comp
            w1 += w2
            ok = w1 >= target
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


def klucb_argmax(mean, pulls, t) -> np.ndarray:
    """Per lane, the column argmax (lowest index on ties) of
    ``klucb_index(mean, pulls, t)`` for (R, K) arrays, bit for bit.

    Every cell takes _PRUNE_AT halvings; the cells whose bound
    lo + 2*width + 2**-40 is below their lane's best lo are dropped and the
    rest gathered.  Then, until every lane has one cell left or the cells
    have taken all 30 halvings, a cell whose whole bisection state equals
    that of the cell before it in its lane is folded, and the rest take
    _GROUP more halvings and are pruned again by the bound.  The choice is
    the lane's one cell, or else the argmax of the cells' lo with -inf
    elsewhere.  This is exact:

    - A cell's final index is at least its lo after k halvings, because
      every later step adds a non-negative width and rounding is monotone.
    - It is at most lo_k + width_k plus 30 half-ulps of rounding, less than
      2**-48 for values <= 1, so the 2**-40 term covers cells whose width_k
      is below one ulp (means at the 1 - 1e-15 clamp, say).  A dropped cell
      ends strictly below a value the lane's maximum reaches.
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
    _halve(state, _PRUNE_AT)
    lo, width = (row.reshape(n_runs, n_arms) for row in state[3:])
    alive = np.flatnonzero(_contends(lo, width, lo.max(axis=1, keepdims=True)))
    state = state[:, alive]
    done = _PRUNE_AT
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
