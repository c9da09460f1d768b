"""Policy registry.

Registered policy ids: eucbv, ucb1, ucbv, moss, ocucb, klucb-plus, ts-beta,
ts-gauss, bayes-ucb, dmed, ucb-improved, median-elim.
"""

from __future__ import annotations

import math

from .base import BatchPolicy
from .bayes import BayesUcbPolicy, TsBetaPolicy, TsGaussPolicy, bayes_ucb_index
from .eucbv import EucbvPolicy, confidence_radius
from .indexes import (
    MossPolicy,
    OcucbPolicy,
    Ucb1Policy,
    UcbvPolicy,
    moss_index,
    ocucb_index,
    ucb1_index,
    ucbv_index,
)
from .kl import KlUcbPlusPolicy, kl_bernoulli, klucb_index
from .rounds import DmedBatchPolicy, MedianElimPolicy, UcbImprovedPolicy

_POLICIES = {
    "eucbv": EucbvPolicy,
    "ucb1": Ucb1Policy,
    "ucbv": UcbvPolicy,
    "moss": MossPolicy,
    "ocucb": OcucbPolicy,
    "klucb-plus": KlUcbPlusPolicy,
    "ts-beta": TsBetaPolicy,
    "ts-gauss": TsGaussPolicy,
    "bayes-ucb": BayesUcbPolicy,
    "dmed": DmedBatchPolicy,
    "ucb-improved": UcbImprovedPolicy,
    "median-elim": MedianElimPolicy,
}

POLICY_IDS = tuple(sorted(_POLICIES))

# Per-policy constructor parameters accepted from configs.
PARAM_SPECS = {
    "eucbv": {"rho": float, "psi": float, "radius_eps_power": int},
    "ocucb": {"alpha": float, "psi": float},
    "bayes-ucb": {"prior": str},
    "median-elim": {"epsilon": float, "delta": float},
}


def validate_params(policy_id: str, params: dict) -> dict:
    """Type-check config parameters; unknown keys and non-finite floats are
    errors."""
    if policy_id not in POLICY_IDS:
        raise ValueError(f"unknown policy id {policy_id!r} (known: {', '.join(POLICY_IDS)})")
    spec = PARAM_SPECS.get(policy_id, {})
    out = {}
    for key, value in (params or {}).items():
        if key not in spec:
            raise ValueError(f"policy {policy_id!r} does not accept parameter {key!r}")
        value = spec[key](value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"policy {policy_id!r} parameter {key!r} must be finite, got {value}")
        out[key] = value
    return out


def make_batch_policy(policy_id: str, n_runs: int, n_arms: int, horizon: int,
                      params: dict | None = None, rng=None):
    """Instantiate a batched policy (one independent lane per run)."""
    params = validate_params(policy_id, params or {})
    return _POLICIES[policy_id](n_runs, n_arms, horizon, rng=rng, **params)


__all__ = [
    "POLICY_IDS",
    "BatchPolicy",
    "EucbvPolicy",
    "confidence_radius",
    "ucb1_index",
    "ucbv_index",
    "moss_index",
    "ocucb_index",
    "bayes_ucb_index",
    "kl_bernoulli",
    "klucb_index",
    "make_batch_policy",
    "validate_params",
]
