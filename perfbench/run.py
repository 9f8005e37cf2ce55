#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cora-bgc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it reports the per-layer metrics
(spans recorded around the calls into each layer, see ``spans.py``) and
writes every span to ``perfbench/out/``.  Either way the run checks the
program's outputs and exits non-zero if a check fails.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment it ran in,
is appended to ``perfbench/out/results.jsonl`` (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import multiprocessing.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Workloads whose cells compute in two worker processes.  BLAS threads are
#: pinned before numpy loads, so this is known before the workloads module.
PARALLEL_WORKLOADS = ("sweep-fanout", "service-resubmit")

#: Extra cold set-ups, each in a fresh interpreter, for the setup_s median.
SETUP_REPEATS = 2
#: Stages ``run_experiment`` records in ``RunRecord.timings``.
STAGES = ("load_dataset", "attack", "train_victim", "evaluate", "condense",
          "train_clean", "defense")
SERVICE_COUNTERS = ("service.store.hits", "service.store.misses", "service.store.puts",
                    "service.pool.dispatched", "service.pool.launched", "service.pool.crashes",
                    "service.pool.timeouts", "service.pool.recycled")
DEFENSE_PROTOCOLS = ("retrain", "apply_to_condensed", "detect", "wrap")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repo", default=str(ROOT),
                        help="repository whose src/ is benchmarked (default: this checkout)")
    parser.add_argument("--out", default=str(OUT_DIR / "results.jsonl"),
                        help="JSON-lines file the full result is appended to")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used for the setup_s median)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads(workers: int) -> int:
    """Pin BLAS threads so workers x threads <= usable cores; before numpy loads."""
    threads = max(1, len(os.sched_getaffinity(0)) // workers)
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def source_digest(root: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(repo: Path):
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                                text=True, timeout=10, check=False)
    except OSError:
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(repo: Path, blas_threads: int, args: argparse.Namespace) -> dict:
    """Host, settings and versions a result was measured under."""
    return {
        "host": platform.node(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(repo),
        "source_sha256": source_digest(repo / "src", "**/*.py"),
        "bench_sha256": source_digest(BENCH_DIR, "*.py"),
        "seconds": args.seconds,
        "seed": args.seed,
    }


def private_peak_kib(pid="self") -> int:
    """A process's own memory: its peak RSS minus the pages it still shares.

    A forked worker's RSS also counts the pages it shares with its parent
    (numpy, the loaded dataset); those are counted once, in the parent.
    """
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        hwm = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as handle:
        rollup = {line.split(":")[0]: int(line.split()[1]) for line in list(handle)[1:]}
    shared = rollup["Rss"] - rollup["Private_Clean"] - rollup["Private_Dirty"]
    return hwm - shared


class WorkerMemory:
    """Private peaks of this process's multiprocessing workers.

    Every worker forked after this object is made writes its private peak
    to a pipe as it exits.  :meth:`peak_kib` adds the workers still alive and
    returns the median: now and then a batch of workers reads about ten MiB
    higher (most likely shared pages turning private when the parent frees
    or rewrites them), and the median does not follow them.
    """

    def __init__(self) -> None:
        self.read_fd, write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        os.set_blocking(write_fd, False)

        def report() -> None:
            with contextlib.suppress(OSError):
                os.write(write_fd, f"{private_peak_kib()}\n".encode())

        multiprocessing.util.register_after_fork(
            self, lambda _: multiprocessing.util.Finalize(None, report, exitpriority=0))

    def peak_kib(self) -> float:
        exited = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self.read_fd, 65536):
                exited += chunk
        peaks = [int(line) for line in exited.split()]
        for pid in live_child_pids():
            # A child that exits meanwhile has reported through the pipe.
            with contextlib.suppress(OSError, StopIteration, KeyError):
                peaks.append(private_peak_kib(pid))
        return statistics.median(peaks) if peaks else 0


def live_child_pids() -> list:
    """Process ids of this process's live children, from /proc."""
    own = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                ppid = next(line.split()[1] for line in handle if line.startswith("PPid:"))
        except (OSError, StopIteration):
            continue
        if ppid == own:
            pids.append(int(entry))
    return pids


def peak_rss_mib(workers: int, worker_memory: Optional[WorkerMemory]) -> float:
    """Peak RSS of this process, plus ``workers`` times the median worker's own memory."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if worker_memory is None:
        return own / 1024
    return (own + workers * worker_memory.peak_kib()) / 1024


def repeat_setups(args: argparse.Namespace) -> list:
    """Cold set-up times measured in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        result = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--repo", args.repo],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if result.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{result.stderr}")
        times.append(json.loads(result.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quality(records) -> dict:
    """Mean utility and attack quality over a run's fixed prefix of distinct cells."""
    attacked = [r for r in records if r.spec.attack.is_set]
    return {
        "clean_cta": mean(r.clean_cta for r in records),
        "attack_asr": mean(r.attack_asr for r in attacked),
        "attack_cta": mean(r.attack_cta for r in attacked),
        "cta_drop": mean(r.clean_cta - r.attack_cta for r in attacked),
    }


def per_layer_metrics(workload, tracer, requests, cache_delta, counter_delta, overhead_s,
                      prefix_quality):
    """Per-layer metrics of a traced run; span values are per timed cell."""
    import spans
    from workloads import defense_protocol

    cells = sum(len(request.records) for request in requests)
    computed = [record for request in requests for record in request.computed]
    summary = tracer.summary()
    metrics = {}
    for name in spans.ALL_SPANS:
        entry = summary.get(name, {"calls": 0, "s": 0.0, "incl_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"] / cells, "calls/cell")
        metrics[f"{name}.s"] = (entry["s"] / cells, "s/cell")
        if not name.startswith("kernels."):
            metrics[f"{name}.incl_s"] = (entry["incl_s"] / cells, "s/cell")
        else:
            metrics[f"{name}.bytes"] = (tracer.kernel_bytes.get(name, 0) / cells, "B/cell")
    lookups = cache_delta["hits"] + cache_delta["misses"]
    for key in ("hits", "misses", "incremental_updates"):
        metrics[f"graph.cache.{key}"] = (cache_delta[key] / cells, "count/cell")
    metrics["graph.cache.hit_ratio"] = (cache_delta["hits"] / lookups if lookups else 0.0, "ratio")
    for key in SERVICE_COUNTERS:
        metrics[key] = (counter_delta.get(key, 0) / cells, "count/cell")
    lookups = counter_delta.get("service.store.hits", 0) + counter_delta.get(
        "service.store.misses", 0)
    metrics["service.store.hit_ratio"] = (
        counter_delta.get("service.store.hits", 0) / lookups if lookups else 0.0, "ratio")
    waits = [r.queue_wait_s for r in requests if r.queue_wait_s is not None]
    metrics["service.queue_wait_s"] = (statistics.median(waits) if waits else 0.0, "s")
    metrics["api.dispatch_overhead_s"] = (dispatch_overhead(requests, workload.workers), "s")
    for stage in STAGES:
        metrics[f"api.stage.{stage}_s"] = (
            mean(r.timings.get(stage, 0.0) for r in computed), "s/cell")
    protocol_of = {}
    for protocol in DEFENSE_PROTOCOLS:
        metrics[f"defenses.{protocol}.calls"] = (0.0, "calls/cell")
        metrics[f"defenses.{protocol}.s"] = (0.0, "s/cell")
    for record in computed:
        name = record.spec.defense.name
        if name is None:
            continue
        if name not in protocol_of:
            protocol_of[name] = defense_protocol(name)
        protocol = protocol_of[name]
        calls, _ = metrics[f"defenses.{protocol}.calls"]
        seconds, _ = metrics[f"defenses.{protocol}.s"]
        metrics[f"defenses.{protocol}.calls"] = (calls + 1 / len(computed), "calls/cell")
        metrics[f"defenses.{protocol}.s"] = (
            seconds + record.timings.get("defense", 0.0) / len(computed), "s/cell")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    for key in ("attack_asr", "attack_cta", "cta_drop"):
        metrics[f"quality.{key}"] = (prefix_quality[key], "ratio")
    return metrics


def describe_samples(values: list) -> str:
    """Sample count, plus the highest percentile with ten samples beyond it."""
    if not values:
        return ""
    text = f"  (median of {len(values)}"
    for percentile in (99, 90):
        if len(values) * (100 - percentile) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[percentile - 1]
            text += f", p{percentile} {cut:.6f}"
            break
    return text + ")"


def workloads_exercising() -> set:
    """Every span some workload requires to fire."""
    import workloads

    return {name for cls in workloads.WORKLOADS.values() for name in cls.must_fire}


def dispatch_overhead(requests, workers: int) -> float:
    """Median per computed cell of worker-slot time not spent in the cell itself."""
    values = []
    for request in requests:
        if request.computed:
            busy = sum(sum(r.timings.values()) for r in request.computed)
            values.append((workers * request.wall_s - busy) / len(request.computed))
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(args.repo).resolve()
    if not (repo / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {repo / 'src'}", file=sys.stderr)
        return 2
    workers = 2 if args.workload in PARALLEL_WORKLOADS else 1
    blas_threads = pin_blas_threads(workers)
    worker_memory = WorkerMemory() if workers > 1 else None
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Block files of the out-of-core engine and any temp files stay inside
    # the checkout.
    os.environ["REPRO_BLOCKED_DIR"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(repo / "src"))

    setup_start = time.perf_counter()
    import workloads  # imports the program: part of the timed set-up

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
    try:
        workload.setup()
        setup_s = time.perf_counter() - setup_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if workload.workers != workers:
            raise RuntimeError(f"{args.workload}: BLAS threads pinned for {workers} workers")
        return measure(args, repo, workload, setup_s, blas_threads, worker_memory)
    finally:
        workload.shutdown()


def timed_phase(args, workload, tracer, worker_memory) -> tuple:
    """Closed-loop requests for ``--seconds`` (at least ``min_requests``).

    Returns the requests, the phase's wall time and the peak RSS read after
    the first ``workload.min_requests`` requests.
    """
    requests = []
    rss_mib = None
    start = time.perf_counter()
    while len(requests) < workload.min_requests or time.perf_counter() - start < args.seconds:
        tracer.cell_id = len(requests)
        requests.append(workload.request(len(requests), tracer))
        if len(requests) == workload.min_requests:
            rss_mib = peak_rss_mib(workload.workers, worker_memory)
    return requests, time.perf_counter() - start, rss_mib


def measure(args, repo: Path, workload, setup_s: float, blas_threads: int,
            worker_memory: Optional[WorkerMemory]) -> int:
    import spans
    from repro.graph.cache import get_default_cache

    traced = bool(args.trace)
    tracer = spans.Tracer() if traced else spans.NullTracer()
    instrumentation = (
        spans.Instrumentation(tracer, workload.entry_points, workload.trace_kernels)
        if traced else contextlib.nullcontext()
    )
    cache_before = get_default_cache().stats()
    counters_before = workload.layer_counters()
    with instrumentation:
        requests, timed_s, rss_mib = timed_phase(args, workload, tracer, worker_memory)
    cache_after = get_default_cache().stats()
    cache_delta = workload.cache_delta({key: cache_after[key] - cache_before[key]
                                        for key in ("hits", "misses", "incremental_updates")})
    counter_delta = {key: value - counters_before[key]
                     for key, value in workload.layer_counters().items()}

    problems = []
    overhead_s = 0.0
    if traced:
        # The same work again with tracing off: the difference is the
        # tracing overhead.
        traced_wall, untraced_wall = workload.untraced_twin(requests)
        overhead_s = traced_wall - untraced_wall
        problems += spans.check_wrappers(tracer.fired(), workload.must_fire,
                                         workload.must_not_fire)
        problems += spans.unexercised(instrumentation.installed, workloads_exercising())
    records = [record for request in requests for record in request.records]
    failed = sum(1 for record in records if not record.ok)
    problems += [f"cell {r.spec.cache_key()[:12]} {r.status}: {(r.error or {}).get('message')}"
                 for r in records if not r.ok]
    problems += workload.gate(requests)
    prefix = [record for request in requests[:workload.min_requests]
              for record in request.computed]
    prefix_quality = quality(prefix)

    samples = {}
    if traced:
        metrics = per_layer_metrics(workload, tracer, requests, cache_delta, counter_delta,
                                    overhead_s, prefix_quality)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans_path))
        spans_file = str(spans_path.relative_to(ROOT))
    else:
        samples = {
            "setup_s": [setup_s] + repeat_setups(args),
            "job_s": [request.wall_s for request in requests],
            "cell_s": [sum(r.timings.values()) for request in requests for r in request.computed],
        }
        metrics = {
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "cell_s": (statistics.median(samples["cell_s"]), "s"),
            "job_s": (statistics.median(samples["job_s"]), "s"),
            "cells_per_s": ((len(records) - failed) / timed_s, "1/s"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "clean_cta": (prefix_quality["clean_cta"], "ratio"),
        }
        spans_file = None

    correct = not problems
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result = dict(summary, workload=args.workload, trace=args.trace, requests=len(requests),
                  timed_s=timed_s, samples=samples, quality=prefix_quality, problems=problems,
                  spans_file=spans_file, env=environment(repo, blas_threads, args))
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(result) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(requests)} requests, "
          f"{len(records)} cells in {timed_s:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}{describe_samples(samples.get(name, []))}")
    if not traced and prefix_quality["attack_asr"]:
        print(f"# attack quality over the first {workload.min_requests} requests: "
              f"attack_asr={prefix_quality['attack_asr']:.4f} "
              f"cta_drop={prefix_quality['cta_drop']:.4f}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
