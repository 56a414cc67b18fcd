#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of jshm.

Run from the root of a jshm checkout:

    python3 perfbench/run.py                        # all workloads, untraced
    python3 perfbench/run.py --workload certify --seed 3
    python3 perfbench/run.py --workload identity --trace 1

A run measures for ``--seconds`` seconds, by default BENCHMARK.json's
``run_seconds``; ``--workload all`` splits that window evenly between the
four workloads.  In its window a workload runs whole rounds, each round in
a fresh worker process (worker.py), one operation at a time, and before
each round a bare interpreter that only imports jshm.cli (a set-up probe).
A round started inside the window runs to its end, so every run attempts
whole rounds of the same operations, and a run overruns its window by at
most one round per workload.  Times are scaled to the nominal host speed
of speed.py.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` plain and traced rounds
alternate and it holds the per-layer metrics and the tracing overhead.  A
readable table goes to standard error.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "identity", "combinatorial", "cli")
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts worker processes from the checkout root."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.workdir = os.path.join(root, OUT_DIR)
        os.makedirs(self.workdir, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, mode: str, workload: str | None = None, in_process: bool = False):
        """Run one worker; returns (its JSON result, scaled seconds from start to import).

        The set-up time is scaled by the start slowness measured here just
        before the start and in the worker just after the import.
        """
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
                "--seed", str(self.seed), "--workdir", self.workdir, "--root", self.root]
        if workload is not None:
            argv += ["--workload", workload]
        if in_process:
            argv.append("--in-process")
        before = speed.start_slowness()
        started = _clock()
        # own session, so a worker that overruns is killed with its children
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchmarkError(f"worker {mode} {workload} exited {proc.returncode}:\n"
                                 + err[-2000:])
        result = json.loads(out.strip().splitlines()[-1])
        slowness = (before + result["ready_slowness"]) / 2
        return result, (result["ready"] - started) / slowness


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def _scaled(r: dict) -> list[float]:
    """The operation times of one round, scaled to the nominal host speed."""
    return speed.scaled([row[1] for row in r["ops"]], [row[6] for row in r["ops"]])


def _wall(rounds: list[dict]) -> float:
    """Median over rounds of the scaled time spent in operations (checks excluded)."""
    return statistics.median(sum(_scaled(r)) for r in rounds)


def _round_stats(rounds: list[dict], workload: str) -> dict:
    """End-to-end figures of a list of plain rounds."""
    latencies = [t for r in rounds for row, t in zip(r["ops"], _scaled(r))
                 if row[2] == "ok"]
    if workload == "cli":
        peaks = [max(row[3] for row in r["ops"] if row[2] == "ok" and row[3] is not None)
                 for r in rounds]
    else:
        peaks = [r["peak_rss_kb"] for r in rounds]
    return {
        "wall_s": _wall(rounds),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * _quantile(latencies, 90),
        "peak_rss_mb": statistics.median(peaks) / 1024,
        "samples": len(latencies),
        "raw_wall_s": statistics.median(sum(row[1] for row in r["ops"]) for r in rounds),
    }


def _tally(rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    correct = True
    problems = []
    for r in rounds:
        for label, _, status, _, known_fault, error, _ in r["ops"]:
            attempted += 1
            if status == "ok":
                continue
            failed += 1
            if status == "wrong" or not known_fault:
                correct = False
            problems.append(f"{status}: {label}: {error}")
    return attempted, failed, correct, problems


def run_workload(runner: Runner, workload: str, seconds: float, trace: bool) -> dict:
    start = _clock()
    setups = []
    plain, traced = [], []
    # cli: the traced run compares in-process rounds with in-process rounds
    in_process = trace and workload == "cli"
    while not plain or _clock() - start < seconds:
        # a bare set-up probe before each round spreads the set-up samples
        # over the whole window
        setups.append(runner.spawn("probe")[1])
        result, setup = runner.spawn("plain", workload, in_process)
        plain.append(result)
        setups.append(setup)
        if trace:
            result, setup = runner.spawn("traced", workload, True)
            traced.append(result)
            setups.append(setup)

    attempted, failed, correct, problems = _tally(plain + traced)
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "problems": sorted(set(problems)), "rounds": len(plain)}
    if not trace:
        stats = _round_stats(plain, workload)
        stats["setup_s"] = statistics.median(setups)
        report["metrics"] = {name: {"value": stats[name], "unit": unit}
                             for name, unit in END_TO_END_UNITS.items()}
        report["samples"] = stats["samples"]
        report["raw_wall_s"] = stats["raw_wall_s"]
        return report
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(r["layers"][name] for r in traced)
    layers["cli.import_s"] = statistics.median(
        r["import_s"] for r in plain + traced)
    layers["trace.overhead_s"] = _wall(traced) - _wall(plain)
    report["metrics"] = {name: {"value": value, "unit": _layer_unit(name)}
                         for name, value in sorted(layers.items())}
    report["skipped"] = traced[0]["skipped"]
    return report


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _print_table(workload: str, report: dict) -> None:
    err = sys.stderr
    err.write(f"\n== {workload}: {report['rounds']} rounds, "
              f"{report['attempted']} operations attempted, {report['failed']} failed, "
              f"correct={report['correct']}\n")
    for name, m in report["metrics"].items():
        err.write(f"  {name:38s} {m['value']:>14.6g} {m['unit']}\n")
    if "samples" in report:
        err.write(f"  (latency percentiles over {report['samples']} operations; "
                  f"unscaled wall_s {report['raw_wall_s']:.6g} s)\n")
    for name in report.get("skipped", []):
        err.write(f"  skipped: {name} (not found; its metrics read 0)\n")
    for line in report["problems"]:
        err.write(f"  {line}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the random families and relabelled files (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of the run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jshm", "cli.py")):
        sys.stderr.write("error: run from the root of a jshm checkout (no src/jshm/cli.py)\n")
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    runner = Runner(root, args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(runner, name, seconds / len(names),
                                         bool(args.trace))
            _print_table(name, reports[name])
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if len(names) == 1:
        report = reports[names[0]]
        metrics = report["metrics"]
    else:
        report = {"correct": all(r["correct"] for r in reports.values()),
                  "attempted": sum(r["attempted"] for r in reports.values()),
                  "failed": sum(r["failed"] for r in reports.values())}
        metrics = {f"{w}.{name}": m for w, r in reports.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
