"""Arm reward models and bandit environments.

Arms are Bernoulli or Gaussian with known means, so the simulator can account
pseudo-regret exactly; an environment holds arms of a single kind.  Gaussian
samples are deliberately NOT clipped to [0, 1] even though the algorithms'
analyses assume bounded rewards: the Gaussian experiment testbeds run the
algorithms on unbounded samples, and clipping would shift every mean.
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


def sample_rewards_batch(env: Environment, arms: np.ndarray, streams) -> np.ndarray:
    """One reward per lane for the chosen arms.  A Bernoulli draw consumes
    one uniform of the lane's stream, a Gaussian draw exactly two.

    ``streams`` is a StreamBatch or a :class:`NoiseBlocks` over one; only its
    ``uniform_each`` (Bernoulli) or ``normal_each`` (Gaussian) is called.
    """
    if env.kind == BERNOULLI:
        u = streams.uniform_each()
        return (u < env.means[arms]).astype(np.float64)
    z = streams.normal_each()
    return env.means[arms] + np.sqrt(env.variances[arms]) * z


class NoiseBlocks:
    """A StreamBatch's reward noise, fetched ``block`` steps per lane at a time.

    A reward's noise does not depend on the arm, so each lane's next
    ``block`` uniforms (Bernoulli, ``uniform_block``) or normals (Gaussian,
    ``normal_block``) are drawn in one call and handed out one step per
    ``uniform_each``/``normal_each`` call.  Draw j of a stream depends only
    on (key, j), so the values equal per-step draws.  At most ``horizon``
    steps are ever drawn: the last block is cut to fit, so each lane's
    counter ends at exactly the per-step count.
    """

    __slots__ = ("_draw", "_block", "_left", "_steps")

    def __init__(self, env: Environment, streams: StreamBatch, horizon: int, block: int):
        self._draw = streams.uniform_block if env.kind == BERNOULLI else streams.normal_block
        self._block = block
        self._left = horizon  # steps not yet drawn
        self._steps = iter(())

    def _next_step(self) -> np.ndarray:
        """The next step's noise, one value per lane; shape (R,)."""
        noise = next(self._steps, None)
        if noise is None:
            n = min(self._block, self._left)
            self._left -= n
            self._steps = iter(np.ascontiguousarray(self._draw(n).T))
            noise = next(self._steps)
        return noise

    uniform_each = normal_each = _next_step
