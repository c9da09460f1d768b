"""Arm reward models and bandit environments.

Arms are Bernoulli or Gaussian with known means, so the simulator can account
pseudo-regret exactly; an environment holds arms of a single kind.  Gaussian
samples are deliberately NOT clipped to [0, 1] even though the algorithms'
analyses assume bounded rewards: the Gaussian experiment testbeds run the
algorithms on unbounded samples, and clipping would shift every mean.

Rewards come in two steps: ``reward_noise`` draws a block of per-lane noise
from the reward streams, and ``sample_rewards_batch`` turns one step of it
into rewards for the arms pulled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import StreamBatch

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
_KINDS = (BERNOULLI, GAUSSIAN)


@dataclass(frozen=True)
class ArmModel:
    """One arm's reward distribution with known mean and variance."""

    kind: str
    mean: float
    variance: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown arm kind {self.kind!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError(
                f"arm mean and variance must be finite, got {self.mean}, {self.variance}"
            )
        if self.kind == BERNOULLI:
            if not 0.0 <= self.mean <= 1.0:
                raise ValueError(f"Bernoulli mean must be in [0, 1], got {self.mean}")
            expected = self.mean * (1.0 - self.mean)
            if self.variance != expected:
                raise ValueError(
                    f"Bernoulli variance must equal mean*(1-mean)={expected}, got {self.variance}"
                )
        elif self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    @classmethod
    def bernoulli(cls, mean: float) -> "ArmModel":
        return cls(BERNOULLI, float(mean), float(mean) * (1.0 - float(mean)))

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "ArmModel":
        return cls(GAUSSIAN, float(mean), float(variance))


@dataclass(frozen=True)
class Environment:
    """An ordered set of arms of one ``kind`` with gap accounting.

    ``optimal_index`` is the lowest index attaining the maximal mean; all
    co-maximal arms have gap exactly 0.  Immutable and safe to share.
    """

    arms: tuple
    kind: str
    means: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    optimal_index: int

    @property
    def n_arms(self) -> int:
        return len(self.arms)


def make_environment(spec) -> Environment:
    """Build an Environment from ArmModels or (kind, mean[, variance]) tuples.

    Rejects K < 2, arms of more than one kind, non-finite values, Bernoulli
    means outside [0, 1], and negative variances.  For Bernoulli entries a
    supplied variance must equal mean*(1-mean); pass None (or omit it) to
    have it derived.
    """
    arms = []
    for entry in spec:
        if isinstance(entry, ArmModel):
            arms.append(entry)
            continue
        kind, mean, *rest = entry
        variance = rest[0] if rest else None
        if kind == BERNOULLI and variance is None:
            arms.append(ArmModel.bernoulli(mean))
        elif variance is None:
            raise ValueError(f"{kind} arm requires an explicit variance")
        else:
            arms.append(ArmModel(kind, float(mean), float(variance)))
    if len(arms) < 2:
        raise ValueError(f"an environment needs at least 2 arms, got {len(arms)}")
    kinds = {a.kind for a in arms}
    if len(kinds) > 1:
        raise ValueError(f"an environment holds one arm kind, got {sorted(kinds)}")
    means = np.array([a.mean for a in arms], dtype=np.float64)
    variances = np.array([a.variance for a in arms], dtype=np.float64)
    optimal = int(np.argmax(means))  # ties resolve to the lowest index
    gaps = means[optimal] - means
    return Environment(tuple(arms), arms[0].kind, means, variances, gaps, optimal)


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
