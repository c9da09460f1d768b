"""Experiment configuration: INI files and compiled-in presets.

Config format (flat sections; unknown keys are errors)::

    [experiment]
    name = my-experiment        ; names the CSVs: a plain file name,
                                ; at most 230 bytes in UTF-8
    horizon = 60000
    runs = 100
    master_seed = 123456789     ; optional
    env_seed = 987654321        ; optional, random-variance presets only
    checkpoints = 200           ; optional

    [environment]
    preset = expt1              ; either this ...
    kind = bernoulli            ; ... or kind/means(/variances)
    means = 0.07*19, 0.1        ; "value*count" repeats the value
    variances = 0.01*66, 0.25*34   ; gaussian only, one per mean

    [policy.eucbv]              ; one section per policy, in run order
    rho = 0.5

Presets expt1..expt4 reproduce the four benchmark testbeds; expt3/expt4 draw
their randomized per-arm variances once from env_seed and freeze them for
all replications.  A preset config's [policy.*] sections replace the
preset's roster, and a preset's horizon and runs default to the paper's T
and 100.

The [environment] keys go to ``env.make_environment``, which checks the arms;
its errors come back as validation errors prefixed "[environment]".  A spec
holds the Environment it built, so a run builds it once.  Validation builds
each policy of the roster that will run once, and no other, so scipy loads
during set-up only when that roster has a beta-prior Bayes-UCB, which no
preset has.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .env import BERNOULLI, GAUSSIAN, Environment, make_environment
from .policies import make_batch_policy
from .rng import DOMAIN_ENV_GEN, StreamBatch
from .simulator import DEFAULT_CHECKPOINTS

DEFAULT_MASTER_SEED = 123456789
DEFAULT_ENV_SEED = 987654321
# The longest file a run writes is the temporary summary CSV
# ".<name>_summary.csv.<pid>.tmp" (cli._write_csv).  Linux pids stay below
# 2**22, so at most 7 digits, and that file name fits the common NAME_MAX of
# 255 bytes when the name takes at most 255 - 18 - 7 = 230 bytes in UTF-8.
_MAX_NAME_BYTES = 255 - len("._summary.csv..tmp") - 7


class ConfigError(Exception):
    """Base for configuration problems."""


class ConfigParseError(ConfigError):
    """The config file could not be read or parsed."""


class ConfigValidationError(ConfigError):
    """The config parsed but a field is invalid."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully validated experiment description."""

    name: str
    env: Environment
    horizon: int
    runs: int
    master_seed: int
    policies: tuple                # (policy_id, params dict) pairs
    checkpoints: int

    def environment(self) -> Environment:
        return self.env


def _env_uniforms(env_seed: int, n: int, lo: float, hi: float) -> list:
    """n frozen Uniform[lo, hi) draws for randomized testbed variances."""
    rng = StreamBatch.for_runs(env_seed, [0], DOMAIN_ENV_GEN)
    return [lo + (hi - lo) * u for u in rng.uniform_block(n)[0].tolist()]


def _expt1_env(env_seed: int) -> Environment:
    return make_environment(BERNOULLI, [0.07] * 19 + [0.1])


def _expt2_env(env_seed: int) -> Environment:
    means = [0.07] * 66 + [0.01] * 33 + [0.09]
    variances = [0.01] * 66 + [0.25] * 33 + [0.25]
    return make_environment(GAUSSIAN, means, variances)


def _expt3_env(env_seed: int) -> Environment:
    means = [0.045] * 10 + [0.04] * 89 + [0.05]
    variances = [0.01] * 10 + _env_uniforms(env_seed, 89, 0.2, 0.24) + [0.25]
    return make_environment(GAUSSIAN, means, variances)


def _expt4_env(env_seed: int) -> Environment:
    draws = _env_uniforms(env_seed, 99, 0.0, 1.0)
    variances = (
        [0.05 * u for u in draws[:49]]
        + [0.19 + 0.05 * u for u in draws[49:]]
        + [0.25]
    )
    return make_environment(GAUSSIAN, [0.09] * 99 + [0.1], variances)


_GAUSS_ROSTER = (
    ("eucbv", {}),
    ("ucbv", {}),
    ("moss", {}),
    ("ocucb", {}),
    ("ts-gauss", {}),
    ("bayes-ucb", {"prior": "gauss"}),
)

# Preset name -> (environment from env_seed, paper horizon, roster in run order).
_PRESETS = {
    "expt1": (_expt1_env, 60000, (
        ("eucbv", {}),
        ("ucb1", {}),
        ("ucbv", {}),
        ("moss", {}),
        ("ocucb", {}),
        ("klucb-plus", {}),
        ("ts-beta", {}),
        ("dmed", {}),
    )),
    "expt2": (_expt2_env, 300000, (
        ("eucbv", {}),
        ("ucb1", {}),
        ("ucbv", {}),
        ("moss", {}),
        ("ocucb", {}),
        ("ucb-improved", {}),
        ("ts-gauss", {}),
        ("bayes-ucb", {"prior": "gauss"}),
        ("median-elim", {"epsilon": 0.1, "delta": 0.1}),
    )),
    "expt3": (_expt3_env, 400000, _GAUSS_ROSTER),
    "expt4": (_expt4_env, 400000, _GAUSS_ROSTER),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_testbed(name: str, env_seed: int | None = None) -> tuple:
    """A preset's (Environment, paper horizon); builds no policy of its
    roster."""
    if name not in PRESET_NAMES:
        raise ConfigValidationError(
            f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})"
        )
    build_env, horizon, _ = _PRESETS[name]
    return build_env(DEFAULT_ENV_SEED if env_seed is None else env_seed), horizon


def preset_spec(name: str, *, runs: int | None = None, horizon: int | None = None,
                master_seed: int | None = None, env_seed: int | None = None,
                checkpoints: int | None = None) -> ExperimentSpec:
    """Build and validate one of the compiled-in presets, with optional
    overrides."""
    env, paper_horizon = preset_testbed(name, env_seed)
    return _build_spec(name, env, _PRESETS[name][2], paper_horizon, runs=runs,
                       horizon=horizon, master_seed=master_seed, checkpoints=checkpoints)


def _build_spec(name: str, env: Environment, roster, paper_horizon: int | None, *,
                runs, horizon, master_seed, checkpoints) -> ExperimentSpec:
    """Fill every default of a spec and validate it against its built
    environment and ``roster``, the policies that will run.  Every spec is
    built here.

    A preset passes its ``paper_horizon``, the default horizon, and runs
    default to 100; a spec without one needs both.  Each other number that is
    None takes the library default.
    """
    if paper_horizon is not None:
        horizon = paper_horizon if horizon is None else horizon
        runs = 100 if runs is None else runs
    elif horizon is None or runs is None:
        raise ConfigValidationError("[experiment] horizon and runs are required")
    if name in ("", ".", "..") or {"/", os.sep, "\0"} & set(name):
        raise ConfigValidationError(
            f"experiment name {name!r} must be a plain file name (it names the CSVs)"
        )
    if len(name.encode("utf-8", "surrogatepass")) > _MAX_NAME_BYTES:
        raise ConfigValidationError(
            f"experiment name must take at most {_MAX_NAME_BYTES} bytes in UTF-8 "
            "(it names the CSVs and their temporary files)"
        )
    if runs < 1:
        raise ConfigValidationError(f"runs must be >= 1, got {runs}")
    if horizon < env.n_arms:
        raise ConfigValidationError(
            f"horizon {horizon} smaller than the number of arms {env.n_arms}"
        )
    # Regret is at most T * max gap, so this bounds every regret value and
    # every stderr's sum of squares; float products overflow to inf, where
    # ** would raise.
    span = horizon * float(env.gaps.max())
    if not math.isfinite(runs * span * span):
        raise ConfigValidationError(
            f"runs * (horizon * max gap)^2 overflows a float (horizon * max gap = {span})"
        )
    checkpoints = DEFAULT_CHECKPOINTS if checkpoints is None else checkpoints
    if checkpoints < 1:
        raise ConfigValidationError("checkpoints must be >= 1")
    if not roster:
        raise ConfigValidationError("at least one [policy.<id>] section is required")
    for pid, params in roster:
        # A one-lane build runs every parameter check a policy makes before
        # any policy of the roster runs, and it draws nothing from the stream
        # the TS policies require.  It shows the roster's warnings, once: the
        # chunk builds, here or in workers forked from this process, find
        # them already shown.  A policy whose optional dependency is missing
        # fails here too.
        try:
            make_batch_policy(pid, 1, env.n_arms, horizon, params,
                              rng=StreamBatch.for_runs(0, [0]))
        except (ValueError, ImportError) as exc:
            raise ConfigValidationError(str(exc)) from exc
    return ExperimentSpec(
        name=name,
        env=env,
        horizon=horizon,
        runs=runs,
        master_seed=DEFAULT_MASTER_SEED if master_seed is None else master_seed,
        policies=tuple((pid, dict(params)) for pid, params in roster),
        checkpoints=checkpoints,
    )


_EXPERIMENT_KEYS = {"name", "horizon", "runs", "master_seed", "env_seed", "checkpoints"}
_ENVIRONMENT_KEYS = {"preset", "kind", "means", "variances"}


def _parse_value_list(text: str, what: str) -> list:
    """Parse "v1*n1, v2, v3*n3" into an expanded float list."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "*" in token:
            value_s, _, count_s = token.partition("*")
            try:
                value, count = float(value_s), int(count_s)
            except ValueError as exc:
                raise ConfigValidationError(f"bad {what} entry {token!r}") from exc
            if count < 1:
                raise ConfigValidationError(f"bad {what} repeat count in {token!r}")
            out.extend([value] * count)
        else:
            try:
                out.append(float(token))
            except ValueError as exc:
                raise ConfigValidationError(f"bad {what} entry {token!r}") from exc
    if not out:
        raise ConfigValidationError(f"{what} list is empty")
    return out


def _get_int(section, key: str):
    raw = section.get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigValidationError(f"[{section.name}] {key} must be an integer, got {raw!r}") from exc


def load_config(path: str, *, runs: int | None = None, horizon: int | None = None,
                master_seed: int | None = None, env_seed: int | None = None,
                checkpoints: int | None = None) -> ExperimentSpec:
    """Parse and validate an experiment config file.

    Each keyword that is not None overrides the file's [experiment] value of
    the same name before the spec is built and validated, so a preset-based
    config draws its randomized variances from an overriding ``env_seed``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"cannot parse config {path}: {exc}") from exc

    sections = set(parser.sections())
    unknown = {s for s in sections if not s.startswith("policy.")} - {"experiment", "environment"}
    if unknown:
        raise ConfigValidationError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    if "experiment" not in sections:
        raise ConfigValidationError("missing [experiment] section")
    if "environment" not in sections:
        raise ConfigValidationError("missing [environment] section (or a preset)")

    exp = parser["experiment"]
    bad = set(exp) - _EXPERIMENT_KEYS
    if bad:
        raise ConfigValidationError(f"unknown [experiment] key(s): {', '.join(sorted(bad))}")
    env_section = parser["environment"]
    bad = set(env_section) - _ENVIRONMENT_KEYS
    if bad:
        raise ConfigValidationError(f"unknown [environment] key(s): {', '.join(sorted(bad))}")

    overrides = dict(runs=runs, horizon=horizon, master_seed=master_seed,
                     env_seed=env_seed, checkpoints=checkpoints)
    numbers = {key: _get_int(exp, key) if value is None else value
               for key, value in overrides.items()}
    env_seed = numbers.pop("env_seed")
    policies = [(sec[len("policy."):], dict(parser[sec]))
                for sec in parser.sections() if sec.startswith("policy.")]

    preset = env_section.get("preset")
    if preset is not None:
        extra = set(env_section) - {"preset"}
        if extra:
            raise ConfigValidationError(
                f"[environment] preset excludes other keys: {', '.join(sorted(extra))}"
            )
        env, paper_horizon = preset_testbed(preset, env_seed)
        return _build_spec(exp.get("name", preset), env, policies or _PRESETS[preset][2],
                           paper_horizon, **numbers)

    means = _parse_value_list(env_section.get("means", ""), "means")
    variances = env_section.get("variances")
    if variances is not None:
        variances = _parse_value_list(variances, "variances")
    try:
        env = make_environment(env_section.get("kind"), means, variances)
    except ValueError as exc:
        raise ConfigValidationError(f"[environment] {exc}") from exc
    return _build_spec(exp.get("name", "experiment"), env, policies, None, **numbers)
