#!/usr/bin/env python3
"""Summarise and compare benchmark result sets.

Result sets are the JSON-lines files ``run.py`` appends to (one line per
run).  Three subcommands::

    # medians and quartiles per workload x end-to-end metric
    python3 perfbench/compare.py summary perfbench/baseline/results.jsonl

    # parent vs change, judged against the bounds in BENCHMARK.json
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

    # run ten alternating parent/change pairs (seeds 1-10), then diff them
    python3 perfbench/compare.py pairs --parent ../parent-checkout --change . \\
        --workload cora-bgc --out-dir perfbench/out/pairs

``diff`` refuses files measured on different hosts or under different
settings (BLAS threads, versions, run length, benchmark code).  For each
workload and metric it reports each side's median and quartiles and one
verdict: ``regression`` when the change's median is worse than the parent's
by more than the metric's bound; ``unresolved`` when either side's spread
(interquartile range over median) exceeds the bound, unless every change
run beats every parent run; ``improved`` when the change wins at least nine
tenths of the same-seed pairs (ties count for neither) and the medians
differ by more than the parent's interquartile range; otherwise ``same``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
#: Alternating pairs ``pairs`` runs, on seeds 1..PAIR_RUNS: what the
#: baseline was measured with.
PAIR_RUNS = 10

#: Environment keys that must match across every compared run.
SETTINGS = ("host", "cpu", "nproc", "affinity", "blas_threads", "blas_env", "python",
            "numpy", "scipy", "seconds", "bench_sha256")


def load_results(path: str, trace: int = 0) -> list:
    with open(path, encoding="utf-8") as handle:
        results = [json.loads(line) for line in handle if line.strip()]
    return [result for result in results if result["trace"] == trace]


def end_to_end_metrics() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {metric["name"]: metric for metric in benchmark["end_to_end"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def format_quartiles(values: list) -> str:
    return "/".join(f"{value:.5g}" for value in quartiles(values))


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def by_workload(results: list) -> dict:
    grouped = {}
    for result in results:
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def settings_mismatch(results: list) -> list:
    """Settings whose values differ between runs of one workload."""
    problems = []
    for key in SETTINGS:
        values = {json.dumps(result["env"].get(key), sort_keys=True) for result in results}
        if len(values) > 1:
            problems.append(f"{key}: {sorted(values)}")
    return problems


def mismatched_workloads(results: list) -> list:
    """Per workload, the settings that differ between its runs."""
    return [f"{workload}: {problem}" for workload, runs in sorted(by_workload(results).items())
            for problem in settings_mismatch(runs)]


def summary(path: str) -> int:
    metrics = end_to_end_metrics()
    results = load_results(path)
    mismatch = mismatched_workloads(results)
    if mismatch:
        print("refusing to summarise runs with different settings:\n  " + "\n  ".join(mismatch))
        return 2
    print(f"{'workload':18s} {'metric':14s} {'unit':6s} {'n':>3s} {'q1':>12s} "
          f"{'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, runs in sorted(by_workload(results).items()):
        for name, spec in metrics.items():
            values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            print(f"{workload:18s} {name:14s} {spec['unit']:6s} {len(values):3d} {q1:12.5f} "
                  f"{median:12.5f} {q3:12.5f} {spread(values):7.4f} {spec['bound']:6.3f}")
    return 0


def verdict(spec: dict, parent: list, change: list, pairs: list) -> str:
    """Judge one workload x metric (see the module docstring)."""
    lower = spec["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse_by = (change_median - parent_median) / parent_median if parent_median else 0.0
    if not lower:
        worse_by = -worse_by
    if spread(parent) > spec["bound"] or spread(change) > spec["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "improved"
        return "unresolved"
    if worse_by > spec["bound"]:
        return "regression"
    decided = [better(c, p) for p, c in pairs if c != p]
    q1, _, q3 = quartiles(parent)
    if (decided and sum(decided) >= 0.9 * len(pairs)
            and abs(change_median - parent_median) > q3 - q1
            and better(change_median, parent_median)):
        return "improved"
    return "same"


def diff(parent_path: str, change_path: str) -> int:
    metrics = end_to_end_metrics()
    parent_runs = load_results(parent_path)
    change_runs = load_results(change_path)
    mismatch = mismatched_workloads(parent_runs + change_runs)
    if mismatch:
        print("refusing to compare runs with different hosts or settings:\n  "
              + "\n  ".join(mismatch))
        return 2
    parent_by = by_workload(parent_runs)
    change_by = by_workload(change_runs)
    regressions = 0
    print(f"{'workload':18s} {'metric':14s} {'parent q1/median/q3':>36s} "
          f"{'change q1/median/q3':>36s} {'pairs':>5s} {'bound':>6s}  verdict")
    for workload in sorted(set(parent_by) & set(change_by)):
        for name, spec in metrics.items():
            parent = [run["metrics"][name]["value"] for run in parent_by[workload]]
            change = [run["metrics"][name]["value"] for run in change_by[workload]]
            change_by_seed = {run["env"]["seed"]: run["metrics"][name]["value"]
                              for run in change_by[workload]}
            pairs = [(run["metrics"][name]["value"], change_by_seed[run["env"]["seed"]])
                     for run in parent_by[workload] if run["env"]["seed"] in change_by_seed]
            result = verdict(spec, parent, change, pairs)
            regressions += result == "regression"
            print(f"{workload:18s} {name:14s} {format_quartiles(parent):>36s} "
                  f"{format_quartiles(change):>36s} {len(pairs):5d} {spec['bound']:6.3f}  {result}")
    return 1 if regressions else 0


def pairs(args: argparse.Namespace) -> int:
    """Alternate parent and change runs on the same seeds, then diff them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for index in range(PAIR_RUNS):
        seed = 1 + index
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for side in order:
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                       "--repo", str(Path(sides[side]).resolve()),
                       "--out", str(out_dir / f"{side}.jsonl")]
            print(f"pair {index}: {side} seed {seed}", flush=True)
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=600)
    return diff(str(out_dir / "parent.jsonl"), str(out_dir / "change.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    summary_parser = commands.add_parser("summary", help="medians and quartiles of one set")
    summary_parser.add_argument("results")
    diff_parser = commands.add_parser("diff", help="parent vs change against the bounds")
    diff_parser.add_argument("parent")
    diff_parser.add_argument("change")
    pairs_parser = commands.add_parser("pairs", help="run alternating pairs, then diff")
    pairs_parser.add_argument("--parent", required=True, help="parent checkout root")
    pairs_parser.add_argument("--change", required=True, help="change checkout root")
    pairs_parser.add_argument("--workload", required=True)
    pairs_parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.command == "summary":
        return summary(args.results)
    if args.command == "diff":
        return diff(args.parent, args.change)
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
