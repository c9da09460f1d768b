"""Bandit environments and reward sampling.

An environment is one arm kind plus per-arm mean and variance arrays, built
and checked once by ``make_environment``.  Arms are Bernoulli or Gaussian
with known means, so the simulator can account pseudo-regret exactly.
Gaussian samples are deliberately NOT clipped to [0, 1] even though the
algorithms' analyses assume bounded rewards: the Gaussian experiment
testbeds run the algorithms on unbounded samples, and clipping would shift
every mean.

Rewards come in two steps: ``reward_noise`` draws a block of per-lane noise
from the reward streams, and ``sample_rewards_batch`` turns one step of it
into rewards for the arms pulled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import StreamBatch

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
_KINDS = (BERNOULLI, GAUSSIAN)


@dataclass(frozen=True)
class Environment:
    """K arms of one ``kind`` with per-arm means, variances and gaps.

    ``optimal_index`` is the lowest index attaining the maximal mean; all
    co-maximal arms have gap exactly 0.  Immutable and safe to share.
    """

    kind: str
    means: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    optimal_index: int

    @property
    def n_arms(self) -> int:
        return self.means.size

    def __eq__(self, other) -> bool:
        # the arrays compare by value; gaps and optimal_index follow from means
        return (isinstance(other, Environment) and self.kind == other.kind
                and np.array_equal(self.means, other.means)
                and np.array_equal(self.variances, other.variances))


def make_environment(kind: str, means, variances=None) -> Environment:
    """Build and check an environment of ``kind`` arms with these means.

    Bernoulli arms take no variances: each is derived as mean*(1-mean).
    Gaussian arms need one variance per mean.  Rejects an unknown kind,
    K < 2, unequal lengths, non-finite values, Bernoulli means outside
    [0, 1], negative variances, and gaps too wide for a float.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be '{BERNOULLI}' or '{GAUSSIAN}', got {kind!r}")
    means = np.array(means, dtype=np.float64)
    if kind == BERNOULLI:
        if variances is not None:
            raise ValueError("bernoulli arms derive their variances; give none")
        variances = means * (1.0 - means)
    elif variances is None:
        raise ValueError("gaussian arms need variances, one per mean")
    else:
        variances = np.array(variances, dtype=np.float64)
    if means.ndim != 1 or means.size < 2:
        raise ValueError(f"an environment needs a list of at least 2 means, got {means.size}")
    if variances.shape != means.shape:
        raise ValueError(
            f"means ({means.size}) and variances ({variances.size}) differ in length"
        )
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise ValueError("arm means and variances must be finite")
    if kind == BERNOULLI and not ((0.0 <= means) & (means <= 1.0)).all():
        raise ValueError(f"bernoulli means must be in [0, 1], got {means.min()}..{means.max()}")
    if (variances < 0.0).any():
        raise ValueError(f"variances must be >= 0, got {variances.min()}")
    optimal = int(np.argmax(means))  # ties resolve to the lowest index
    with np.errstate(over="ignore"):
        gaps = means[optimal] - means
    if not np.isfinite(gaps).all():
        raise ValueError(
            f"the gap between means {means[optimal]} and {means.min()} overflows a float"
        )
    return Environment(kind, means, variances, gaps, optimal)


def reward_noise(env: Environment, streams: StreamBatch, steps: int) -> np.ndarray:
    """The next ``steps`` steps of reward noise per lane; shape (R, steps).

    A reward's noise does not depend on the arm pulled: a Bernoulli step
    takes one uniform of the lane's stream, a Gaussian step one standard
    normal (two uniforms).  Draw j of a stream depends only on (key, j), so
    a block equals the same steps drawn one at a time.
    """
    if env.kind == BERNOULLI:
        return streams.uniform_block(steps)
    return streams.normal_block(steps)


def sample_rewards_batch(env: Environment, arms: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One reward per lane for the chosen arms, from one step's (R,) noise:
    ``noise < mean`` for Bernoulli arms, ``mean + sd * noise`` for Gaussian."""
    if env.kind == BERNOULLI:
        return (noise < env.means[arms]).astype(np.float64)
    return env.means[arms] + np.sqrt(env.variances[arms]) * noise
