"""Checks on the two CSVs one ``eucbv run`` writes, and their digests.

A run passes only if both files exist and parse, the curves hold exactly one
row per (policy, checkpoint) with the requested run count, every value is
finite, every mean curve is non-decreasing (cumulative regret cannot fall),
and the summary agrees with the last checkpoint of each curve.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

CURVES_HEADER = "policy,run_count,checkpoint_t,mean_regret,stderr_regret"
SUMMARY_HEADER = "policy,final_mean_regret,final_stderr"


def checkpoint_times(horizon: int, n_checkpoints: int) -> list:
    """The checkpoints the CLI documents: evenly spaced in [1, T], T included."""
    if horizon <= n_checkpoints:
        return list(range(1, horizon + 1))
    return sorted({i * horizon // n_checkpoints for i in range(1, n_checkpoints + 1)})


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_run(out_dir: Path, workload) -> tuple:
    """(errors, digests) for the CSVs of one run of ``workload``."""
    paths = {kind: out_dir / f"{workload.experiment}_{kind}.csv"
             for kind in ("curves", "summary")}
    errors, digests, lines = [], {}, {}
    for kind, path in paths.items():
        try:
            data = path.read_bytes()
        except OSError as exc:
            errors.append(f"{kind}: cannot read ({exc.strerror})")
            continue
        digests[kind] = hashlib.sha256(data).hexdigest()
        lines[kind] = data.decode("utf-8", errors="replace").splitlines()
    if errors:
        return errors, digests
    last = _check_curves(lines["curves"], workload, errors)
    _check_summary(lines["summary"], workload, last, errors)
    return errors, digests


def _check_curves(lines: list, workload, errors: list) -> dict:
    """Validate the curves file; returns policy -> (last mean, last stderr) text."""
    if not lines or lines[0] != CURVES_HEADER:
        errors.append("curves: bad header")
        return {}
    ts = checkpoint_times(workload.horizon, workload.checkpoints)
    policies = sorted(workload.policies)
    expected = [(p, t) for p in policies for t in ts]
    rows = lines[1:]
    if len(rows) != len(expected):
        errors.append(f"curves: {len(rows)} rows, expected {len(expected)}")
        return {}
    last, prev = {}, None
    for i, (row, (policy, t)) in enumerate(zip(rows, expected), start=2):
        fields = row.split(",")
        if len(fields) != 5 or fields[0] != policy or fields[2] != str(t):
            errors.append(f"curves line {i}: expected {policy} at t={t}")
            return last
        if fields[1] != str(workload.runs):
            errors.append(f"curves line {i}: run_count {fields[1]} != {workload.runs}")
        mean, stderr = _finite(fields[3]), _finite(fields[4])
        if mean is None or stderr is None or stderr < 0.0:
            errors.append(f"curves line {i}: non-finite or negative value")
            return last
        if prev is not None and prev[0] == policy and mean < prev[1]:
            errors.append(f"curves line {i}: {policy} mean regret decreases")
        prev = (policy, mean)
        last[policy] = (fields[3], fields[4])
    return last


def _check_summary(lines: list, workload, last: dict, errors: list) -> None:
    if not lines or lines[0] != SUMMARY_HEADER:
        errors.append("summary: bad header")
        return
    rows = [row.split(",") for row in lines[1:]]
    if sorted(r[0] for r in rows) != sorted(workload.policies):
        errors.append("summary: policy set differs from the roster")
        return
    for fields in rows:
        if len(fields) != 3 or _finite(fields[1]) is None or _finite(fields[2]) is None:
            errors.append(f"summary: bad row for {fields[0]}")
            return
        if last and last.get(fields[0]) != (fields[1], fields[2]):
            errors.append(f"summary: {fields[0]} disagrees with its curve's last point")
    # The CLI orders by the unrounded means; two policies whose means print
    # alike may therefore appear in either order.
    means = [float(r[1]) for r in rows]
    if means != sorted(means):
        errors.append("summary: rows not ordered by final mean regret")
