"""Summarize benchmark result files across runs.

    python3 perfbench/summarize.py [RESULT.json ...]

With no arguments, reads every file in ``.bench_out/results/``.  For each
workload it prints, per end-to-end metric, the median and quartiles of the
per-run values (each run's value is itself a median over its repetitions),
the number of runs and the spread (q3 - q1) / median, plus the CSV digests
seen.  The newest traced run's per-layer metrics follow.  Output is JSON;
``baseline.json`` was produced this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_out" / "results"


def main(paths: list) -> dict:
    records = [json.loads(Path(p).read_text()) for p in paths]
    end_to_end, digests, traced, stamps = {}, {}, None, set()
    for rec in sorted(records, key=lambda r: r["seed"]):
        stamps.add(json.dumps(rec["environment"], sort_keys=True))
        if rec["trace"]:
            traced = rec
            continue
        per_metric = end_to_end.setdefault(rec["workload"], {})
        for name, metric in rec["metrics"].items():
            per_metric.setdefault(name, {"unit": metric["unit"], "values": []})
            per_metric[name]["values"].append(metric["value"])
        digests.setdefault(rec["workload"], {})[str(rec["seed"])] = rec.get("digests")
    summary = {"environment": [json.loads(s) for s in sorted(stamps)], "end_to_end": {}}
    for workload, metrics in sorted(end_to_end.items()):
        rows = summary["end_to_end"][workload] = {}
        for name, m in metrics.items():
            values = m["values"]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            rows[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                          "runs": len(values), "spread": (q3 - q1) / median}
    summary["csv_sha256_by_seed"] = digests
    if traced is not None:
        summary["per_layer"] = {"seed": traced["seed"], "metrics": traced["metrics"]}
    return summary


if __name__ == "__main__":
    files = sys.argv[1:] or sorted(str(p) for p in RESULTS.glob("*.json"))
    print(json.dumps(main(files), indent=1))
