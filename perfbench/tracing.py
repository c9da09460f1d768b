"""Benchmark-side span recorder and the hooks that attach it to eucbv.

Nothing here edits the library.  ``install`` looks up each hooked function or
method by name and replaces that binding with a timing wrapper; a name that
no longer exists is reported as absent instead of failing, so the benchmark
keeps running when a later refactor deletes or renames a hooked call.

Spans are kept in memory, aggregated per (span name, policy), and written to
a JSON file per process when the traced run ends.  Pool workers are forked
from the traced CLI, inherit the hooks, and write their share after every
chunk (they exit through ``os._exit``, which skips ``atexit``).

Self time of a span is its duration minus the spans of *other* groups that
ran inside it; a span nested in a span of the same group (say
``StreamBatch.uniform_block`` inside ``StreamBatch.normal_each``) is folded
into its parent, so a group's time is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

SAMPLE_LIMIT = 256  # raw spans kept per process, first come first kept

# Plain spans: (module, attribute path, span name, group).  The binding
# patched is the one the caller looks up at call time: simulator imports
# sample_rewards_batch by name, so that is hooked in eucbv.simulator, not
# eucbv.env.  Hooks that also count work are added in HOOKS at the end.
SPANS = (
    ("eucbv.simulator", "_aggregate", "simulator.aggregate", "simulator"),
    ("eucbv.simulator", "sample_rewards_batch", "env.sample", "env"),
    ("eucbv.cli", "_write_csv", "cli.csv_write", "cli"),
    ("eucbv.stats", "PullStats.means", "stats.estimate", "stats"),
    ("eucbv.stats", "PullStats.variances", "stats.estimate", "stats"),
    ("eucbv.stats", "PullStats.record", "stats.record", "stats"),
    ("eucbv.rng", "StreamBatch.uniform_each", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.uniform_lanes", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.uniform_block", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.normal_each", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.normal_block", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.beta_block", "rng.draw", "rng"),
    ("eucbv.rng", "StreamBatch.gamma_block", "rng.gamma_block", "rng"),
    ("eucbv.policies.eucbv", "eucbv_select", "eucbv.select", "policies"),
    ("eucbv.policies.eucbv", "eucbv_eliminate", "eucbv.eliminate", "policies"),
    ("eucbv.policies.eucbv", "eucbv_advance_round", "eucbv.advance_round", "policies"),
    ("eucbv.policies.kl", "klucb_index", "kl.index", "policies"),
)


def _size(value) -> int:
    return int(getattr(value, "size", 0))


# Work counted at a span boundary: span name -> (count key, counter).
SPAN_COUNTS = {
    "stats.estimate": ("cells.stats", lambda args, result: _size(result)),
    "kl.index": ("cells.kl", lambda args, result: _size(args[0]) if args else 0),
}


class Tracer:
    """Per-process span aggregates plus exact work counts."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.flushes = 0
        self.pid = os.getpid()
        self.hooks = {}       # hooked binding -> "present" / "absent"
        self.missing = set()  # span names and count keys an absent hook would feed
        self.reset()

    def reset(self) -> None:
        self.policy = None        # id of the policy whose chunk is running
        self.policy_rng = None    # its policy-domain stream batch, if any
        self.stack = []           # open frames: [name, group, other-group time]
        self.by_name = {}         # (name, policy) -> [calls, total, self, max]
        self.by_group = {}        # (group, policy) -> [total, self]
        self.counts = {}          # (key, policy) -> exact count
        self.sample = []

    def count(self, key: str, value, policy=None) -> None:
        k = (key, self.policy if policy is None else policy)
        self.counts[k] = self.counts.get(k, 0) + value

    def wrap(self, fn, name: str, group: str, after=None):
        """Timing wrapper around ``fn``; ``after(args, kwargs, result)`` runs
        once the span has closed, so its bookkeeping is not charged to it."""
        clock = time.perf_counter
        counter = SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, group, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock() - start)
            if counter is not None:
                self.count(counter[0], counter[1](args, result))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame, start: float, dur: float) -> None:
        stack = self.stack
        stack.pop()
        name, group, other = frame
        policy = self.policy
        rec = self.by_name.get((name, policy))
        if rec is None:
            rec = self.by_name[(name, policy)] = [0, 0.0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - other
        if dur > rec[3]:
            rec[3] = dur
        parent = stack[-1] if stack else None
        if parent is not None and parent[1] == group:
            parent[2] += other
        else:
            g = self.by_group.get((group, policy))
            if g is None:
                g = self.by_group[(group, policy)] = [0.0, 0.0]
            g[0] += dur
            g[1] += dur - other
            if parent is not None:
                parent[2] += dur
        if len(self.sample) < SAMPLE_LIMIT:
            self.sample.append(
                [name, policy, start, dur, parent[0] if parent is not None else None])

    def flush(self) -> None:
        """Write this process's aggregates to its own file and start afresh."""
        data = {
            "pid": self.pid,
            "hooks": self.hooks,
            "missing": sorted(self.missing),
            "by_name": [[n, p, *v] for (n, p), v in self.by_name.items()],
            "by_group": [[g, p, *v] for (g, p), v in self.by_group.items()],
            "counts": [[k, p, v] for (k, p), v in self.counts.items()],
            "sample": self.sample,
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}-{self.flushes}.json")
        self.flushes += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        self.reset()


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) of a hooked binding, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


RUN_BATCH_COUNTS = ("lanes", "steps", "lane_steps", "post_init_lane_steps", "uniforms",
                    "committed")


def _after_run_batch(tracer: Tracer):
    """Exact work counts for one chunk, read once its loop has returned."""

    def after(args, kwargs, result):
        try:
            env, policy, horizon, streams = args[:4]
            lanes, n_arms = len(streams), env.n_arms
            found = {
                "lanes": lanes,
                "steps": horizon,
                "lane_steps": horizon * lanes,
                "post_init_lane_steps": (horizon - n_arms) * lanes,
                "uniforms": int(streams.counters.sum()),
                "committed": int((result[2] >= 0).sum()),
            }
            if tracer.policy_rng is not None:
                found["uniforms"] += int(tracer.policy_rng.counters.sum())
        except (ValueError, TypeError, AttributeError, IndexError):
            tracer.hooks["simulator.loop counts"] = "absent"
            tracer.missing.update(RUN_BATCH_COUNTS)
            return
        state = getattr(policy, "state", None)
        if state is not None and hasattr(state, "active") and hasattr(state, "m"):
            found["eucbv.eliminated"] = int(n_arms * lanes - state.active.sum())
            found["eucbv.rounds"] = int(state.m.sum())
        for member in getattr(policy, "members", ()):
            rounds = getattr(member, "round", None)
            left = getattr(member, "surviving", getattr(member, "active", None))
            if rounds is not None:
                found["rounds.completed"] = found.get("rounds.completed", 0) + rounds
            if left is not None:
                found["rounds.arms_left"] = found.get("rounds.arms_left", 0) + len(left)
            if rounds is not None or left is not None:
                done = rounds >= 1 if rounds is not None else len(left) < n_arms
                found["rounds.lanes_done"] = found.get("rounds.lanes_done", 0) + int(done)
        for key, value in found.items():
            tracer.count(key, value)

    return after


def _policy_factory(tracer: Tracer, fn):
    """Wrap make_batch_policy: note the running policy and time the returned
    object's select/update by patching them on the instance."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.policy = args[0] if args else kwargs.get("policy_id")
        tracer.policy_rng = kwargs.get("rng")
        policy = fn(*args, **kwargs)
        for method in ("select", "update"):
            bound = getattr(policy, method, None)
            try:
                if bound is None:
                    raise AttributeError(method)
                setattr(policy, method, tracer.wrap(bound, f"policy.{method}", "policies"))
            except AttributeError:
                tracer.hooks[f"policy.{method}"] = "absent"
                tracer.missing.add(f"policy.{method}")
        return policy

    return wrapper


def _pool_counter(tracer: Tracer, cls):
    """Stand-in for ProcessPoolExecutor that counts constructions."""

    def make(*args, **kwargs):
        tracer.count("pools", 1, policy="")
        return cls(*args, **kwargs)

    return make


def _flushing(tracer: Tracer, chunk_fn):
    """A chunk run by a forked pool worker starts from empty aggregates (the
    fork copied the parent's) and flushes its spans when it returns."""
    main_pid = tracer.pid

    @functools.wraps(chunk_fn)
    def wrapper(*args, **kwargs):
        in_worker = os.getpid() != main_pid
        if in_worker and tracer.pid != os.getpid():
            tracer.pid = os.getpid()
            tracer.flushes = 0
            tracer.reset()
        result = chunk_fn(*args, **kwargs)
        if in_worker:
            tracer.flush()
        return result

    return wrapper


def _span(name: str, group: str):
    return lambda tracer, fn: tracer.wrap(fn, name, group)


def _feeds(name: str) -> tuple:
    """What a plain span provides: its own name and any count taken on it."""
    return (name, SPAN_COUNTS[name][0]) if name in SPAN_COUNTS else (name,)


# (module, attribute path, maker, provides): maker(tracer, original) returns
# the stand-in; ``provides`` lists the span names and count keys it feeds.
HOOKS = [(module, attr, _span(name, group), _feeds(name))
         for module, attr, name, group in SPANS] + [
    ("eucbv.simulator", "run_batch",
     lambda t, fn: t.wrap(fn, "simulator.loop", "simulator", _after_run_batch(t)),
     ("simulator.loop", *RUN_BATCH_COUNTS)),
    ("eucbv.simulator", "_simulate_chunk",
     lambda t, fn: _flushing(t, t.wrap(fn, "simulator.chunk", "simulator")),
     ("simulator.chunk",)),
    ("eucbv.simulator", "make_batch_policy", _policy_factory,
     ("policy.select", "policy.update", "uniforms")),
    ("eucbv.simulator", "ProcessPoolExecutor", _pool_counter, ("pools",)),
]


def install(tracer: Tracer) -> dict:
    """Attach every hook that still resolves; returns name -> present/absent."""
    for module_name, attr_path, make, provides in HOOKS:
        key = f"{module_name}.{attr_path}"
        found = _resolve(module_name, attr_path)
        if found is None:
            tracer.hooks[key] = "absent"
            tracer.missing.update(provides)
            continue
        owner, leaf = found
        setattr(owner, leaf, make(tracer, getattr(owner, leaf)))
        tracer.hooks[key] = "present"
    return tracer.hooks
