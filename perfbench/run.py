"""Benchmark of the eucbv CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is used from ``src/`` as is.

``--trace 0`` measures one workload end to end.  A single closed-loop client
repeats ``eucbv run`` (one process at a time) until ``--seconds`` are used
up, at least three times, and before each repetition times a set-up probe
(interpreter start, ``import eucbv.cli``, spec and environment).  No hook is
installed in these processes.  Every repetition's CSVs are validated and
hashed, and all repetitions at one seed must hash alike.  One traced run
follows; it checks the workload's stated property and that tracing leaves
the CSV bytes unchanged.  Reported values are medians over the repetitions.

``--trace 1`` runs every workload once untraced and once traced, whatever
``--workload`` names, because each per-layer metric is defined on one
workload (see GLOSSARY.md).  That includes the elim workload, which is traced
but not timed end to end.  It prints the per-layer table.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  Details (every repetition, digests, load averages, versions,
merged spans) go to ``.bench_out/results/``.  Exit code 0 means the benchmark
ran; ``correct`` says whether every output passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import validate
from workloads import TIMED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
CLI_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
PROBES_PER_TRACED_WORKLOAD = 3


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd: list, stdout: Path, stderr: Path, timeout: float) -> dict:
    """Run ``cmd`` in its own process group and reap it with wait4.

    The rusage wait4 returns covers the process and every child it reaped,
    so the CLI's pool workers count toward cpu_s and peak RSS.  On timeout
    or interruption the whole group is killed and reaped.
    """
    load_before = os.getloadavg()
    timed_out = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
                                start_new_session=True)

        def expire():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            if status is None:
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "timed_out": timed_out.is_set(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def setup_probe(workload, seed: int, work: Path) -> dict:
    """Time one set-up probe process; its JSON line adds the phase split."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *workload.probe_args(seed, work)]
    rec = run_process(cmd, work / "probe.out", work / "probe.err", PROBE_TIMEOUT_S)
    rec["errors"] = []
    if rec["rc"] != 0:
        rec["errors"].append(f"setup probe exit {rec['rc']}: {_tail(work / 'probe.err')}")
        return rec
    try:
        rec.update(json.loads(_tail(work / "probe.out", 1)))
    except ValueError:
        rec["errors"].append("setup probe printed no JSON")
    return rec


def cli_run(workload, seed: int, work: Path, tag: str, spans_dir: Path | None = None) -> dict:
    """One ``eucbv run`` (traced when ``spans_dir`` is given), validated."""
    out_dir = work / tag
    out_dir.mkdir()
    args = workload.cli_args(seed, work, out_dir)
    if spans_dir is None:
        cmd = [sys.executable, "-m", "eucbv", *args]
    else:
        spans_dir.mkdir()
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(SRC), str(spans_dir), *args]
    rec = run_process(cmd, work / f"{tag}.out", work / f"{tag}.err", CLI_TIMEOUT_S)
    if rec["rc"] != 0:
        why = "timed out" if rec["timed_out"] else f"exit {rec['rc']}"
        rec["errors"], rec["digests"] = [f"{why}: {_tail(work / f'{tag}.err')}"], {}
    else:
        rec["errors"], rec["digests"] = validate.check_run(out_dir, workload)
    shutil.rmtree(out_dir)
    return rec


def merge_spans(spans_dir: Path) -> dict:
    """Sum the per-process span files of one traced run."""
    merged = {"by_name": {}, "by_group": {}, "counts": {}, "hooks": {}, "missing": set(),
              "sample": []}
    for path in sorted(spans_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        merged["hooks"].update(data["hooks"])
        merged["missing"].update(data["missing"])
        merged["sample"].extend(data["sample"][:64])
        for name, policy, calls, total, self_s, longest in data["by_name"]:
            rec = merged["by_name"].setdefault((name, policy), [0, 0.0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
            rec[3] = max(rec[3], longest)
        for group, policy, total, self_s in data["by_group"]:
            rec = merged["by_group"].setdefault((group, policy), [0.0, 0.0])
            rec[0] += total
            rec[1] += self_s
        for key, policy, value in data["counts"]:
            merged["counts"][(key, policy)] = merged["counts"].get((key, policy), 0) + value
    return merged


def _jsonable_spans(merged: dict) -> dict:
    return {
        "hooks": merged["hooks"],
        "missing": sorted(merged["missing"]),
        "by_name": [[n, p, *v] for (n, p), v in sorted(merged["by_name"].items(), key=str)],
        "by_group": [[g, p, *v] for (g, p), v in sorted(merged["by_group"].items(), key=str)],
        "counts": [[k, p, v] for (k, p), v in sorted(merged["counts"].items(), key=str)],
        "sample": merged["sample"],
    }


def environment_stamp() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
    }


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


class Run:
    """Everything one benchmark invocation did, for the report and the file."""

    def __init__(self, args):
        self.args = args
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.work = OUT / "work" / tag
        self.result_path = OUT / "results" / f"{tag}.json"
        self.work.mkdir(parents=True)
        self.result_path.parent.mkdir(parents=True, exist_ok=True)
        self.runs = []      # every CLI run made: its record carries "errors"
        self.record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "environment": environment_stamp()}

    def cli(self, workload, tag: str, spans_dir=None, reference=None, setup=None) -> dict:
        """Run the CLI once; ``reference`` digests must match, and a failed
        set-up probe fails the repetition it belongs to."""
        rec = cli_run(workload, self.args.seed, self.work, tag, spans_dir)
        rec["name"] = f"{workload.name} {tag}"
        if setup is not None:
            rec["setup"] = setup
            rec["errors"] += setup["errors"]
        if not rec["errors"] and reference and rec["digests"] != reference:
            rec["errors"].append("CSV digests differ from the first repetition at this seed")
        self.runs.append(rec)
        return rec

    def traced(self, workload, reference, extra: dict) -> layers.View:
        """Traced CLI run: checks digests and the workload property."""
        spans_dir = self.work / f"spans-{workload.name}"
        rec = self.cli(workload, "traced", spans_dir, reference)
        extra["traced_wall_s"] = rec["wall_s"]
        merged = merge_spans(spans_dir)
        view = layers.View(merged, extra)
        failures, unchecked = layers.property_checks(workload, view)
        rec["errors"] += [f"property {f}" for f in failures]
        for label in unchecked:
            print(f"note: {workload.name} property unchecked (counter absent): {label}")
        self.record.setdefault("traced", {})[workload.name] = {
            "extra": extra, "unchecked_properties": unchecked,
            "absent_hooks": sorted(k for k, v in merged["hooks"].items() if v == "absent"),
            "spans": _jsonable_spans(merged),
        }
        return view

    def stamp(self, probe: dict, load_before, load_after) -> None:
        """Record and print the library's versions and the machine."""
        env = self.record["environment"]
        env.update(numpy=probe.get("numpy"), scipy=probe.get("scipy"))
        print(f"  python {env['python']} numpy {env['numpy']} scipy {env['scipy']}; "
              f"nproc {env['nproc']}; cpu {env['cpu_model']}; "
              f"loadavg {load_before[0]:.2f} -> {load_after[0]:.2f}")

    def finish(self, metrics: dict) -> None:
        failed = [r for r in self.runs if r["errors"]]
        self.record.update(runs=self.runs, metrics=metrics)
        self.result_path.write_text(json.dumps(self.record, indent=1, default=str))
        print(f"failed_frac {len(failed) / len(self.runs):.6g} "
              f"({len(failed)} of {len(self.runs)} eucbv runs)")
        for rec in failed:
            print(f"FAILED {rec['name']}: {'; '.join(rec['errors'])}")
        print(f"details: {self.result_path.relative_to(ROOT)}")
        print(json.dumps({"correct": not failed, "attempted": len(self.runs),
                          "failed": len(failed), "metrics": metrics}))


def end_to_end(run: Run) -> dict:
    args = run.args
    workload = WORKLOADS[args.workload]
    workload.write_inputs(run.work)
    setup_probe(workload, args.seed, run.work)  # warm the file cache and bytecode
    start = time.perf_counter()
    reps, reference = [], None
    while True:
        rep_start = time.perf_counter()
        probe = setup_probe(workload, args.seed, run.work)
        rec = run.cli(workload, f"rep{len(reps)}", reference=reference, setup=probe)
        reference = reference or (rec["digests"] if not rec["errors"] else None)
        rec["rep_s"] = time.perf_counter() - rep_start
        reps.append(rec)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
            break
    run.traced(workload, reference, {})

    ok = [r for r in reps if not r["errors"]] or reps
    setup = quartiles([r["setup"]["wall_s"] for r in ok])
    per_metric = {
        "wall_s": [r["wall_s"] for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "lane_steps_per_s": [workload.lane_steps / (r["wall_s"] - setup["median"]) for r in ok],
    }
    stats = {name: quartiles(vals) for name, vals in per_metric.items()}
    stats["setup_s"] = setup
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "lane_steps_per_s": "1/s",
             "setup_s": "s"}
    print(f"workload {workload.name}, seed {args.seed}: {len(reps)} repetitions of "
          f"eucbv {' '.join(workload.cli_args(args.seed, Path('W'), Path('OUT')))}")
    for name, s in stats.items():
        print(f"  {name:<17} median {s['median']:.6g} {units[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    digests = reference or {}
    print(f"  sha256 curves {digests.get('curves', '-')}  summary {digests.get('summary', '-')}")
    run.stamp(reps[-1]["setup"], reps[0]["load_before"], reps[-1]["load_after"])
    run.record.update(stats=stats, digests=digests)
    return {name: {"value": stats[name]["median"], "unit": units[name]} for name in units}


def per_layer(run: Run) -> dict:
    views = {}
    start_load = os.getloadavg()
    for workload in WORKLOADS.values():
        workload.write_inputs(run.work)
        setup_probe(workload, run.args.seed, run.work)
        probes = [setup_probe(workload, run.args.seed, run.work)
                  for _ in range(PROBES_PER_TRACED_WORKLOAD)]
        good = [p for p in probes if not p["errors"]]
        extra = {}
        if good:
            extra["config_s"] = statistics.median(p["config_s"] for p in good)
            extra["import_s"] = statistics.median(p["import_s"] for p in good)
        errors = [e for p in probes for e in p["errors"]]
        rec = run.cli(workload, "untraced", setup={"errors": errors, "probes": probes})
        extra.update(wall_s=rec["wall_s"], cpu_s=rec["cpu_s"])
        views[workload.name] = run.traced(workload, rec["digests"] or None, extra)
    metrics, absent = layers.compute(views)
    print_layer_table(views, metrics, absent)
    run.stamp(probes[-1], start_load, os.getloadavg())
    return metrics


def _or_nan(fn) -> float:
    """A table cell; nan where nothing was measured or a hook is absent."""
    try:
        return fn()
    except (KeyError, ZeroDivisionError):
        return float("nan")


def print_layer_table(views: dict, metrics: dict, absent: list) -> None:
    for name, view in views.items():
        print(f"{name}: self time in us per chunk step; cells and uniform draws per lane-step")
        print(f"  {'policy':<13}{'select':>9}{'update':>9}{'estimate':>9}{'rng':>9}"
              f"{'cells/ls':>10}{'draws/ls':>10}")
        for p in WORKLOADS[name].policies:
            per_step = [
                lambda s=span: view.self_s(s, p) / view.count("steps", p) * 1e6
                for span in ("policy.select", "policy.update", "stats.estimate")
            ]
            per_step.append(lambda: view.group_self_s("rng", p) / view.count("steps", p) * 1e6)
            cells = _or_nan(lambda: view.count("cells.stats", p)
                            / view.count("post_init_lane_steps", p))
            draws = _or_nan(lambda: view.count("uniforms", p) / view.count("lane_steps", p))
            print(f"  {p:<13}" + "".join(f"{_or_nan(f):9.1f}" for f in per_step)
                  + f"{cells:10.1f}{draws:10.2f}")
    print("per-layer metrics:")
    for name, m in metrics.items():
        mark = "  (absent)" if name in absent else ""
        print(f"  {name:<58} {m['value']:.6g} {m['unit']}{mark}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eucbv" / "cli.py").is_file():
        print(f"error: no eucbv sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, so the running eucbv process group is killed
    # and reaped on the way out instead of being left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    run.finish(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
