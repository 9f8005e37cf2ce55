"""The benchmark's four workloads, driven only through the public API.

Every workload is one client in a closed loop: :meth:`request` sends the
next cell, sweep or job only after the previous one returned.  Inputs are
generated from the run's ``--seed``; the program receives only the specs.

Importing this module imports the program, so the benchmark imports it
inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.api import ExperimentSpec, RunRecord, SweepSpec, run_experiment, run_sweep
from repro.datasets import load_dataset
from repro.graph.cache import get_default_cache
from repro.registry import DEFENSES
from repro.service import CondensationService, ResultStore

import spans as tracing

#: The ROADMAP baseline cell: Cora, GCond-X at ratio 0.026, BGC at poison
#: ratio 0.1, 20 + 20 epochs, 100 evaluation epochs.
CORA_BGC_CELL = {
    "dataset": "cora",
    "model": "gcn",
    "condenser": {"name": "gcond-x", "overrides": {"ratio": 0.026, "epochs": 20}},
    "attack": {"name": "bgc", "overrides": {"poison_ratio": 0.1, "epochs": 20}},
    "evaluation": {"overrides": {"epochs": 100}},
}

#: A clean flickr cell: 100k nodes, above the blocked-propagation threshold.
FLICKR_CELL = {
    "dataset": "flickr",
    "model": "gcn",
    "condenser": {"name": "gcond-x", "overrides": {"ratio": 0.005, "epochs": 10}},
    "evaluation": {"overrides": {"epochs": 50}},
}

#: Small cells, so per-cell dispatch cost is a visible share of a job.
TINY_BASE = {
    "dataset": "tiny",
    "condenser": {"name": "gcond-x", "overrides": {"epochs": 3}},
    "attack": {"name": "bgc", "overrides": {
        "epochs": 3, "surrogate_steps": 5, "selection.selector_epochs": 10}},
    "evaluation": {"overrides": {"epochs": 20}},
}

#: models x defenses x poison ratios = 32 cells; prune, dropedge and
#: randsmooth cover the apply_to_condensed, retrain and wrap protocols.
FANOUT_AXES = {
    "model": ["gcn", "sgc", "gat", "mlp"],
    "defense": [None, "prune", "dropedge", "randsmooth"],
    "attack.poison_ratio": [0.1, 0.2],
}

#: Service jobs: 4 defenses x 8 cell seeds = 32 cells.  Job ``j`` takes
#: seeds ``4j .. 4j+7`` of the run's seed stream, so it shares 16 cells with
#: job ``j-1``.  The detectors cover the fourth protocol, detect.
RESUBMIT_DEFENSES = [None, "feature-outlier", "spectral-signature", "dropnode"]
RESUBMIT_SEEDS_PER_JOB = 8
RESUBMIT_SEED_STEP = 4

#: Worker processes of the two parallel workloads.
WORKERS = 2
#: Sweep execution the parallel workloads use: what ``repro sweep --workers 2``
#: runs, with failures recorded instead of raised so they are counted.
PROCESS_EXECUTION = {"backend": "process", "workers": WORKERS, "on_error": "record"}
SERIAL_EXECUTION = {"backend": "serial", "on_error": "record"}

#: The paper's shape on the Cora cell: ASR close to 1, CTA close to clean.
MIN_ATTACK_ASR = 0.9
MAX_CTA_DROP = 0.05
#: Floor on the Cora cell's clean CTA, about three points under the lowest
#: per-cell value seen (0.959), so a loss of utility fails the gate.
MIN_CLEAN_CTA = 0.93


def cell_seed(workload: str, seed: int, index: int) -> int:
    """Deterministic seed of the ``index``-th input of a run with ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def comparable(record: RunRecord, ignore=("timings",)) -> Dict[str, Any]:
    """A record's JSON form without the fields a comparison must ignore."""
    payload = record.to_dict()
    for key in ignore:
        payload.pop(key)
    return payload


def record_mismatches(label: str, expected: List[RunRecord], actual: List[RunRecord],
                      ignore=("timings",)) -> List[str]:
    if len(expected) != len(actual):
        return [f"{label}: {len(actual)} records, expected {len(expected)}"]
    problems = []
    for position, (want, got) in enumerate(zip(expected, actual)):
        if comparable(want, ignore) != comparable(got, ignore):
            problems.append(f"{label}: record {position} differs")
    return problems


@dataclass
class Request:
    """One closed-loop request as the client saw it."""

    wall_s: float
    records: List[RunRecord]
    #: Records computed for this request (store hits excluded).
    computed: List[RunRecord]
    queue_wait_s: Optional[float] = None


def defense_protocol(name: str) -> str:
    """The protocol ``run_experiment`` applies a defense through."""
    defense = DEFENSES.build(name)
    for protocol in ("retrain", "apply_to_condensed", "detect", "wrap"):
        if hasattr(defense, protocol):
            return protocol
    raise ValueError(f"defense {name!r} implements no known protocol")


class Workload:
    """Base class: one dataset, one client, a sequence of requests."""

    name = ""
    dataset = ""
    #: Worker processes computing at once.
    workers = 1
    #: Requests every run makes, however long they take.  Quality metrics
    #: and peak RSS are read over this fixed prefix, so they do not depend
    #: on how many requests fit in ``--seconds``.
    min_requests = 3
    #: Per-layer spans that must fire / must stay silent in a traced run.
    must_fire: tuple = ()
    must_not_fire: tuple = ()
    entry_points: Dict[str, str] = {}
    trace_kernels = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.problems: List[str] = []

    def setup(self) -> None:
        """Load the dataset and build its normalised adjacency."""
        graph = load_dataset(self.dataset)
        get_default_cache().normalized(graph)

    def request(self, index: int, tracer) -> Request:
        raise NotImplementedError

    def gate(self, requests: List[Request]) -> List[str]:
        """Correctness problems found after the timed phase (empty = pass)."""
        return []

    def untraced_twin(self, requests: List[Request]) -> tuple:
        """After a traced phase: (traced wall, wall of the same work untraced).

        Also checks that the untraced work reproduces the traced records.
        """
        repeat = self.request(1, tracing.NullTracer())
        self.problems += record_mismatches("traced vs untraced", requests[1].records,
                                           repeat.records)
        return requests[1].wall_s, repeat.wall_s

    def shutdown(self) -> None:
        pass

    def layer_counters(self) -> Dict[str, int]:
        """Running totals of the workload's service counters, if any."""
        return {}

    def cache_delta(self, parent_delta: Dict[str, int]) -> Dict[str, int]:
        """PropagationCache counter deltas of the timed phase."""
        return parent_delta


class SerialCells(Workload):
    """Serial ``run_experiment`` calls, each cell with its own seed."""

    cell: Dict[str, Any] = {}
    entry_points = tracing.SERIAL_ENTRY_POINTS
    trace_kernels = True
    #: The untraced repeat of request 1, once made.
    repeat: Optional[Request] = None

    def spec(self, index: int) -> ExperimentSpec:
        payload = dict(self.cell, seed=cell_seed(self.name, self.seed, index))
        return ExperimentSpec.from_dict(payload)

    def request(self, index: int, tracer) -> Request:
        spec = self.spec(index)
        start = time.perf_counter()
        with tracer.span("api.run_experiment"):
            record = run_experiment(spec)
        return Request(time.perf_counter() - start, [record], [record])

    def untraced_twin(self, requests: List[Request]) -> tuple:
        self.repeat = self.request(1, tracing.NullTracer())
        return requests[1].wall_s, self.repeat.wall_s

    def gate(self, requests: List[Request]) -> List[str]:
        # A same-seed repeat, untraced, must reproduce the record (both
        # condensed-graph fingerprints included) of the request it repeats.
        # After a traced phase the repeat is the untraced twin, so this also
        # checks that tracing left the record unchanged.
        repeat = self.repeat or self.request(1, tracing.NullTracer())
        return self.problems + record_mismatches(
            "same-seed repeat", requests[1].records, repeat.records)


class CoraBGC(SerialCells):
    name = "cora-bgc"
    dataset = "cora"
    cell = CORA_BGC_CELL
    # Every serial entry point and all ten kernel primitives run here; the
    # graph is below the blocked threshold.
    must_fire = tuple(
        name for name in tracing.SERIAL_ENTRY_POINTS if name != "graph.blocked.blocked_spmm"
    ) + ("api.run_experiment",) + tuple(f"kernels.{k}" for k in tracing.KERNEL_PRIMITIVES)
    must_not_fire = ("graph.blocked.blocked_spmm",)

    def gate(self, requests: List[Request]) -> List[str]:
        problems = super().gate(requests)
        for position, request in enumerate(requests):
            for record in request.records:
                if record.attack_asr < MIN_ATTACK_ASR:
                    problems.append(
                        f"cell {position}: attack_asr {record.attack_asr:.4f} < {MIN_ATTACK_ASR}"
                    )
                if record.clean_cta < MIN_CLEAN_CTA:
                    problems.append(
                        f"cell {position}: clean_cta {record.clean_cta:.4f} < {MIN_CLEAN_CTA}"
                    )
                drop = record.clean_cta - record.attack_cta
                if drop > MAX_CTA_DROP:
                    problems.append(f"cell {position}: cta_drop {drop:.4f} > {MAX_CTA_DROP}")
        return problems


class FlickrCondense(SerialCells):
    name = "flickr-condense"
    dataset = "flickr"
    cell = FLICKR_CELL
    must_fire = (
        "api.run_experiment", "condensation.condense", "condensation.epoch_step",
        "condensation.outer_step", "graph.blocked.blocked_spmm", "kernels.spmm",
        "evaluation.train_model_on_condensed", "evaluation.evaluate_clean",
        "evaluation.predict_on_graph", "models.Trainer.fit", "datasets.load_dataset",
    )
    must_not_fire = tuple(
        name for name in tracing.SERIAL_ENTRY_POINTS if name.startswith("attack.")
    ) + ("evaluation.evaluate_backdoor",)


class SweepFanout(Workload):
    """One 32-cell grid per request through the process backend."""

    name = "sweep-fanout"
    dataset = "tiny"
    workers = WORKERS
    # Tiny cells vary widely in accuracy; a longer prefix steadies clean_cta.
    min_requests = 6
    entry_points = {"datasets.load_dataset": tracing.PARENT_ENTRY_POINTS["datasets.load_dataset"]}
    must_fire = ("api.run_sweep", "datasets.load_dataset")

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.cache_totals = {"hits": 0, "misses": 0, "incremental_updates": 0}

    def sweep(self, index: int, execution=PROCESS_EXECUTION) -> SweepSpec:
        return SweepSpec.from_dict({
            "name": f"{self.name}-{index}",
            "seed": cell_seed(self.name, self.seed, index),
            "base": TINY_BASE,
            "axes": FANOUT_AXES,
            "execution": execution,
        })

    def request(self, index: int, tracer) -> Request:
        sweep = self.sweep(index)
        start = time.perf_counter()
        with tracer.span("api.run_sweep"):
            result = run_sweep(sweep)
        wall = time.perf_counter() - start
        for key in self.cache_totals:
            self.cache_totals[key] += result.cache_stats.get(key, 0)
        return Request(wall, list(result), list(result))

    def cache_delta(self, parent_delta: Dict[str, int]) -> Dict[str, int]:
        # The cells run in workers; the sweep ships their merged counters.
        return dict(self.cache_totals)

    def gate(self, requests: List[Request]) -> List[str]:
        serial = list(run_sweep(self.sweep(1, SERIAL_EXECUTION)))
        return self.problems + record_mismatches(
            "process vs serial sweep", serial, requests[1].records)


class ServiceResubmit(Workload):
    """Overlapping jobs on a resident service with an on-disk result store."""

    name = "service-resubmit"
    dataset = "tiny"
    workers = WORKERS
    min_requests = 6
    entry_points = tracing.PARENT_ENTRY_POINTS
    must_fire = ("service.job", "service.store.get", "service.store.put",
                 "datasets.load_dataset")

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.store_root = os.path.join(scratch, f"store-{os.getpid()}")
        self.service: Optional[CondensationService] = None
        # cache key -> first record seen for it, to check store-served copies
        self.first_seen: Dict[str, RunRecord] = {}

    def setup(self) -> None:
        super().setup()
        shutil.rmtree(self.store_root, ignore_errors=True)
        self.service = CondensationService(
            workers=self.workers, store=ResultStore(self.store_root)).start()

    def job(self, index: int) -> SweepSpec:
        first = index * RESUBMIT_SEED_STEP
        seeds = [cell_seed(self.name, self.seed, k)
                 for k in range(first, first + RESUBMIT_SEEDS_PER_JOB)]
        return SweepSpec.from_dict({
            "name": f"{self.name}-{index}",
            "base": TINY_BASE,
            "axes": {"defense": RESUBMIT_DEFENSES, "seed": seeds},
        })

    def request(self, index: int, tracer) -> Request:
        job = self.job(index)
        start = time.perf_counter()
        first_record_at = None
        with tracer.span("service.job"):
            handle = self.service.submit(job, block=True)
            for _ in handle.stream(timeout=120):
                if first_record_at is None:
                    first_record_at = time.perf_counter()
            records = list(handle.wait(timeout=120))
        wall = time.perf_counter() - start
        expected_hits = 0 if index == 0 else job.num_cells // 2
        if handle.store_hits != expected_hits:
            self.problems.append(
                f"job {index}: {handle.store_hits} store hits, expected {expected_hits}"
            )
        computed = []
        for record in records:
            key = record.spec.cache_key()
            earlier = self.first_seen.get(key)
            if earlier is None:
                self.first_seen[key] = record
                computed.append(record)
            elif comparable(earlier, ("timings", "cell_index")) != comparable(
                record, ("timings", "cell_index")
            ):
                self.problems.append(f"job {index}: store-served record differs from computed")
        return Request(wall, records, computed, queue_wait_s=first_record_at - start)

    def untraced_twin(self, requests: List[Request]) -> tuple:
        # A repeated job would be served whole from the store, so the twin is
        # the next job of the sequence: same shape, 16 hits and 16 cells.
        extra = self.request(len(requests), tracing.NullTracer())
        return statistics.median(r.wall_s for r in requests[1:]), extra.wall_s

    def gate(self, requests: List[Request]) -> List[str]:
        serial = list(run_sweep(self.job(1), execution=SERIAL_EXECUTION))
        return self.problems + record_mismatches(
            "service vs serial job", serial, requests[1].records
        )

    def layer_counters(self) -> Dict[str, int]:
        stats = self.service.stats()
        counters = {f"service.store.{key}": stats["store"][key]
                    for key in ("hits", "misses", "puts")}
        for key in ("dispatched", "launched", "crashes", "timeouts", "recycled"):
            counters[f"service.pool.{key}"] = stats["pool"].get(key, 0)
        return counters

    def shutdown(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        shutil.rmtree(self.store_root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (CoraBGC, FlickrCondense, SweepFanout, ServiceResubmit)}
