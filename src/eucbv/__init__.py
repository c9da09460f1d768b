"""Variance-aware arm-elimination bandits with baselines, a deterministic
replication harness, regret-bound calculators, and lemma verifiers."""

from .env import Environment, make_environment, reward_noise, sample_rewards_batch
from .rng import StreamBatch
from .simulator import AggregateCurve, run_batch, run_many, run_roster
from .stats import PullStats

__version__ = "0.1.0"

__all__ = [
    "Environment",
    "make_environment",
    "reward_noise",
    "sample_rewards_batch",
    "StreamBatch",
    "PullStats",
    "AggregateCurve",
    "run_batch",
    "run_many",
    "run_roster",
    "__version__",
]
