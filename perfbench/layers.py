"""Per-layer metrics derived from the traced runs, and the workload checks.

A traced run of every workload yields span aggregates keyed by (span name,
policy) and exact work counts keyed the same way (see tracing.py).  Each
per-policy metric is read on the policy's home workload (``home_policies`` in
workloads.py); metrics that compare workloads carry the workload name.  Times
are self times: a span's duration minus the spans of other layers inside it.
"Per step" means per timestep of one chunk of 50 lanes, the CLI's batch width.
"""

from __future__ import annotations

from workloads import ELIM, EXPT1, EXPT3, WORKLOADS

US = 1e6

# Policies that read PullStats.means/variances; the others keep their own sums,
# so a stats.estimate time for them would always read 0.
ESTIMATE_USERS = ("eucbv", "ucb1", "ucbv", "moss", "ocucb", "klucb-plus")


class View:
    """Merged span data of one workload's traced run, plus its run records.

    Asking for a span or count that an absent hook would have fed raises
    KeyError, so the metric is reported absent instead of reading 0."""

    def __init__(self, data: dict, extra: dict):
        self.by_name = data["by_name"]
        self.by_group = data["by_group"]
        self.counts = data["counts"]
        self.missing = data["missing"]
        self.extra = extra

    def _sum(self, table: dict, key: str, col: int, policy) -> float:
        if key in self.missing:
            raise KeyError(key)
        return sum(v[col] for (k, p), v in table.items()
                   if k == key and (policy is None or p == policy))

    def self_s(self, name: str, policy=None) -> float:
        return self._sum(self.by_name, name, 2, policy)

    def total_s(self, name: str, policy=None) -> float:
        return self._sum(self.by_name, name, 1, policy)

    def calls(self, name: str, policy=None) -> float:
        return self._sum(self.by_name, name, 0, policy)

    def max_s(self, name: str) -> float:
        if name in self.missing:
            raise KeyError(name)
        return max((v[3] for (k, _), v in self.by_name.items() if k == name), default=0.0)

    def group_self_s(self, group: str, policy) -> float:
        return self._sum(self.by_group, group, 1, policy)

    def count(self, key: str, policy=None, strict: bool = False) -> float:
        """Sum of a count; ``strict`` also treats a count never taken (a probe
        of policy state that found nothing) as absent rather than 0."""
        if key in self.missing or (strict and (key, policy) not in self.counts):
            raise KeyError(key)
        return sum(v for (k, p), v in self.counts.items()
                   if k == key and (policy is None or p == policy))


def _ratio(num: float, den: float, scale: float = 1.0):
    """num/den*scale, or None (absent) when nothing was measured."""
    return num / den * scale if den else None


def _on(workload: str, fn):
    """A metric read from one workload's View."""
    return lambda views: fn(views[workload])


def _per_policy(policy: str) -> list:
    """Metrics of one policy, read on its home workload."""
    home = next(w.name for w in WORKLOADS.values() if policy in w.home_policies)
    specs = [
        (f"policies.select_us.{policy}", "us/step", "lower",
         lambda v: _ratio(v.self_s("policy.select", policy), v.count("steps", policy), US)),
        (f"policies.update_us.{policy}", "us/step", "lower",
         lambda v: _ratio(v.self_s("policy.update", policy), v.count("steps", policy), US)),
        (f"stats.estimate_cells.{policy}", "cells/lane-step", "lower",
         lambda v: _ratio(v.count("cells.stats", policy),
                          v.count("post_init_lane_steps", policy))),
        (f"rng.draw_us.{policy}", "us/step", "lower",
         lambda v: _ratio(v.group_self_s("rng", policy), v.count("steps", policy), US)),
        (f"rng.uniforms_per_lane_step.{policy}", "draws/lane-step", "lower",
         lambda v: _ratio(v.count("uniforms", policy), v.count("lane_steps", policy))),
    ]
    if policy in ESTIMATE_USERS:
        specs.append(
            (f"stats.estimate_us.{policy}", "us/step", "lower",
             lambda v: _ratio(v.self_s("stats.estimate", policy), v.count("steps", policy), US)))
    return [(name, unit, better, _on(home, fn)) for name, unit, better, fn in specs]


def _per_workload(workload: str) -> list:
    """Metrics of one workload as a whole, named after it."""
    specs = [
        ("env.sample_us", "us/call", "lower",
         lambda v: _ratio(v.self_s("env.sample"), v.calls("env.sample"), US)),
        ("stats.record_us", "us/call", "lower",
         lambda v: _ratio(v.self_s("stats.record"), v.calls("stats.record"), US)),
        ("simulator.loop_us", "us/step", "lower",
         lambda v: _ratio(v.self_s("simulator.loop"), v.count("steps"), US)),
        ("simulator.aggregate_s", "s", "lower",
         lambda v: v.total_s("simulator.aggregate") or None),
        ("cli.csv_write_s", "s", "lower", lambda v: v.total_s("cli.csv_write") or None),
        ("config.load_s", "s", "lower", lambda v: v.extra.get("config_s")),
        ("trace.overhead_frac", "ratio", "lower",
         lambda v: _ratio(v.extra["traced_wall_s"], v.extra["wall_s"]) - 1.0),
    ]
    return [(f"{name}.{workload}", unit, better, _on(workload, fn))
            for name, unit, better, fn in specs]


def _eucbv_rounds(workload: str) -> list:
    """EUCBV's elimination and round bookkeeping on one workload."""
    specs = [
        ("eliminate_us", "us/step", "lower",
         lambda v: _ratio(v.self_s("eucbv.eliminate", "eucbv"), v.count("steps", "eucbv"), US)),
        ("advance_round_us", "us/step", "lower",
         lambda v: _ratio(v.self_s("eucbv.advance_round", "eucbv"),
                          v.count("steps", "eucbv"), US)),
        ("eliminated_per_lane", "arms/lane", "higher",
         lambda v: _ratio(v.count("eucbv.eliminated", "eucbv", strict=True),
                          v.count("lanes", "eucbv"))),
        ("rounds_per_lane", "rounds/lane", "higher",
         lambda v: _ratio(v.count("eucbv.rounds", "eucbv", strict=True),
                          v.count("lanes", "eucbv"))),
        ("committed_frac", "ratio", "higher",
         lambda v: _ratio(v.count("committed", "eucbv"), v.count("lanes", "eucbv"))),
    ]
    return [(f"policies.eucbv.{name}.{workload}", unit, better, _on(workload, fn))
            for name, unit, better, fn in specs]


def _loop_share(v: View):
    """Share of chunk time spent in the scalar round policies' select/update."""
    scalar = sum(v.self_s(f"policy.{m}", p)
                 for p in ("ucb-improved", "median-elim") for m in ("select", "update"))
    return _ratio(scalar, v.total_s("simulator.chunk"))


def _median_import_s(views: dict) -> float:
    values = sorted(v.extra["import_s"] for v in views.values())
    return values[len(values) // 2]


SPECS = [spec for p in sorted({p for w in WORKLOADS.values() for p in w.home_policies})
         for spec in _per_policy(p)]
SPECS += [spec for name in WORKLOADS for spec in _per_workload(name)]
SPECS += _eucbv_rounds(EXPT3.name) + _eucbv_rounds(ELIM.name)
SPECS += [
    (f"stats.estimate_cells.eucbv.{ELIM.name}", "cells/lane-step", "lower",
     _on(ELIM.name, lambda v: _ratio(v.count("cells.stats", "eucbv"),
                                     v.count("post_init_lane_steps", "eucbv")))),
    ("simulator.pools_created", "count", "lower",
     _on(EXPT1.name, lambda v: v.count("pools") or None)),
    ("simulator.chunk_s_max", "s", "lower",
     _on(EXPT1.name, lambda v: v.max_s("simulator.chunk") or None)),
    ("simulator.parallel_efficiency", "ratio", "higher",
     _on(EXPT1.name, lambda v: _ratio(v.extra["cpu_s"], v.extra["wall_s"] * EXPT1.threads))),
    ("policies.kl.index_us", "us/step", "lower",
     _on(EXPT1.name, lambda v: _ratio(v.self_s("kl.index", "klucb-plus"),
                                      v.count("steps", "klucb-plus"), US))),
    ("policies.kl.cells_per_step", "cells/lane-step", "lower",
     _on(EXPT1.name, lambda v: _ratio(v.count("cells.kl", "klucb-plus"),
                                      v.count("post_init_lane_steps", "klucb-plus")))),
    ("rng.gamma_block_us", "us/step", "lower",
     _on(EXPT1.name, lambda v: _ratio(v.total_s("rng.gamma_block", "ts-beta"),
                                      v.count("steps", "ts-beta"), US))),
    ("policies.rounds.ucb_improved_rounds_per_lane", "rounds/lane", "higher",
     _on(ELIM.name, lambda v: _ratio(v.count("rounds.completed", "ucb-improved", strict=True),
                                     v.count("lanes", "ucb-improved")))),
    ("policies.rounds.median_elim_arms_left_per_lane", "arms/lane", "lower",
     _on(ELIM.name, lambda v: _ratio(v.count("rounds.arms_left", "median-elim", strict=True),
                                     v.count("lanes", "median-elim")))),
    ("policies.rounds.loop_share", "ratio", "lower", _on(ELIM.name, _loop_share)),
    ("setup.import_s", "s", "lower", _median_import_s),
]


def compute(views: dict) -> tuple:
    """({name: {"value", "unit"}}, [absent names]).  An absent metric (its
    hook or counter no longer resolves) is reported with value 0."""
    metrics, absent = {}, []
    for name, unit, _better, fn in SPECS:
        try:
            value = fn(views)
        except (KeyError, TypeError, ZeroDivisionError):
            value = None
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def property_checks(workload, view: View) -> tuple:
    """(failures, unchecked) for the property ``workload`` was chosen for.
    A property whose counter no longer resolves is unchecked, not failed."""
    failures, unchecked = [], []

    def need(label: str, value, ok) -> None:
        if value is None:
            unchecked.append(label)
        elif not ok(value):
            failures.append(f"{label}: got {value}")

    def counted(key: str, policy):
        return view.counts.get((key, policy))

    if workload is ELIM:
        lanes, committed = counted("lanes", "eucbv"), counted("committed", "eucbv")
        need("eucbv committed_frac >= 0.9",
             committed / lanes if lanes and committed is not None else None,
             lambda x: x >= 0.9)
        for policy in ("ucb-improved", "median-elim"):
            lanes = counted("lanes", policy)
            need(f"{policy} lanes finishing a round == {lanes}",
                 counted("rounds.lanes_done", policy), lambda x, n=lanes: x == n)
    elif workload is EXPT3:
        need("eucbv lanes committed == 0", counted("committed", "eucbv"), lambda x: x == 0)
    elif workload is EXPT1:
        need(f"process pools created == {len(EXPT1.policies)}", counted("pools", ""),
             lambda x: x == len(EXPT1.policies))
    return failures, unchecked
