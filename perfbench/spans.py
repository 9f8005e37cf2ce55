"""Outside-in tracing: spans recorded around the calls into each repo layer.

Nothing here edits the program.  Layers are observed from the benchmark's
side of their public entry points:

* functions and methods are replaced, for the duration of a traced phase,
  by wrappers that open a span around the original call.  A function that
  other modules import by name (``from repro.attack.trigger import
  generate_hard_triggers``) is patched in every loaded ``repro`` module that
  holds it, so the importing module's calls are seen too;
* kernel primitives are counted by a :class:`~repro.kernels.NumpyBackend`
  subclass registered through ``register_kernel_backend`` and selected with
  ``set_kernel_backend``.  It runs the reference implementation unchanged, so
  records stay bit-identical.

Spans (name, start, end, parent, cell id) stay in memory and are written out
once, at the end of the run.  A span's self time is its duration minus the
time covered by its direct children; children always nest inside their
parent because each thread keeps its own span stack.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Entry points wrapped in serial workloads, as ``module:attribute`` or
#: ``module:Class.method``.  Keys are the span names reported per layer.
SERIAL_ENTRY_POINTS: Dict[str, str] = {
    "attack.selection.select": "repro.attack.selection:RepresentativeNodeSelector.select",
    "attack.trigger.batched_local_trigger_loss": "repro.attack.trigger:batched_local_trigger_loss",
    "attack.trigger.generate_hard_triggers": "repro.attack.trigger:generate_hard_triggers",
    "autograd.Adam.step": "repro.autograd.optim:Adam.step",
    "autograd.Tensor.backward": "repro.autograd.tensor:Tensor.backward",
    "models.Trainer.fit": "repro.models.trainer:Trainer.fit",
    "models.Trainer.evaluate": "repro.models.trainer:Trainer.evaluate",
    "condensation.condense": "repro.condensation.gradient_matching:GradientMatchingCondenser.condense",
    "condensation.epoch_step": "repro.condensation.gradient_matching:GradientMatchingCondenser.epoch_step",
    "condensation.outer_step": "repro.condensation.gradient_matching:GradientMatchingCondenser.outer_step",
    "graph.blocked.blocked_spmm": "repro.graph.blocked:blocked_spmm",
    "evaluation.train_model_on_condensed": "repro.evaluation.pipeline:train_model_on_condensed",
    "evaluation.evaluate_clean": "repro.evaluation.pipeline:evaluate_clean",
    "evaluation.evaluate_backdoor": "repro.evaluation.pipeline:evaluate_backdoor",
    "evaluation.predict_on_graph": "repro.evaluation.pipeline:predict_on_graph",
    "datasets.load_dataset": "repro.datasets.base:load_dataset",
}

#: Entry points wrapped in the client process of pool/fork workloads.  Work
#: inside worker processes is not traced: those workloads report the
#: parent-side layers and the ``RunRecord.timings`` the workers ship back.
PARENT_ENTRY_POINTS: Dict[str, str] = {
    "datasets.load_dataset": "repro.datasets.base:load_dataset",
    "service.store.get": "repro.service.store:ResultStore.get",
    "service.store.put": "repro.service.store:ResultStore.put",
}

#: Spans the benchmark opens itself, one per closed-loop request.
REQUEST_SPANS = ("api.run_experiment", "api.run_sweep", "service.job")

#: The ten :class:`~repro.kernels.KernelBackend` primitives.
KERNEL_PRIMITIVES = (
    "spmm",
    "matmul",
    "batched_matmul",
    "transpose_last2",
    "embed_blocks",
    "scatter_add_rows",
    "gather_scale",
    "scale_csr",
    "softmax_xent",
    "softmax_xent_grad",
)

#: Every span name that can appear in a report (kernels included).
ALL_SPANS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        list(SERIAL_ENTRY_POINTS)
        + list(PARENT_ENTRY_POINTS)
        + list(REQUEST_SPANS)
        + [f"kernels.{name}" for name in KERNEL_PRIMITIVES]
    )
)

COUNTING_BACKEND = "perfbench-counting"


def operand_bytes(value) -> int:
    """Bytes a kernel operand occupies, computed from its shape and dtype.

    Dense arrays count ``nbytes``; sparse matrices count their data and index
    arrays; tuples sum their members.  Scalars and shapes count nothing.
    """
    if isinstance(value, tuple):
        return sum(operand_bytes(item) for item in value)
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    total = 0
    for part in ("data", "indices", "indptr"):
        array = getattr(value, part, None)
        if array is not None and hasattr(array, "nbytes"):
            total += int(array.nbytes)
    return total


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced phase."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, cell id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.kernel_bytes: Dict[str, int] = defaultdict(int)
        self.cell_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` block as one span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.cell_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.cell_id)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total self time and total inclusive time.

        Inclusive time counts a recursive or re-entrant span once, at its
        outermost call.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "incl_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) - covered[index]
            if not self._inside(name, parent):
                entry["incl_s"] += end - start
        return totals

    def _inside(self, name: str, parent: int) -> bool:
        """Whether an ancestor span has the same name."""
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def fired(self) -> set:
        return {span[0] for span in self.spans}

    def write(self, path: str) -> None:
        """Write every span as one JSON document (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "cell"],
            "spans": [
                [name, round(start - origin, 7), round(end - origin, 7), parent, cell]
                for name, start, end, parent, cell in self.spans
            ],
            "kernel_bytes": dict(self.kernel_bytes),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class NullTracer:
    """Stand-in used with tracing off: opens no spans and costs nothing."""

    cell_id = -1

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def _counting_backend_class(tracer: Tracer):
    """A NumpyBackend subclass that opens a span around every primitive."""
    from repro.kernels import NumpyBackend

    def make(primitive: str):
        reference = getattr(NumpyBackend, primitive)
        span_name = f"kernels.{primitive}"

        def method(self, *args):
            result = tracer.call(span_name, reference, self, *args)
            tracer.kernel_bytes[span_name] += operand_bytes(args) + operand_bytes(result)
            return result

        method.__name__ = primitive
        return method

    namespace = {"name": COUNTING_BACKEND}
    for primitive in KERNEL_PRIMITIVES:
        namespace[primitive] = make(primitive)
    return type("CountingBackend", (NumpyBackend,), namespace)


def _resolve(target: str):
    """``module:attr`` or ``module:Class.method`` -> (owner, attribute, value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, owner.__dict__[attribute]


class Instrumentation:
    """Installs a tracer's wrappers on entry and removes them on exit.

    ``entry_points`` maps span names to targets (see
    :data:`SERIAL_ENTRY_POINTS`); ``kernels`` also routes every primitive
    through the counting backend.
    """

    def __init__(self, tracer: Tracer, entry_points: Dict[str, str], kernels: bool) -> None:
        self.tracer = tracer
        self.entry_points = dict(entry_points)
        self.kernels = kernels
        self._patched: List[Tuple[object, str, object]] = []
        self._previous_backend = None

    @property
    def installed(self) -> Tuple[str, ...]:
        """Names of every span this instrumentation can emit."""
        names = list(self.entry_points)
        if self.kernels:
            names += [f"kernels.{name}" for name in KERNEL_PRIMITIVES]
        return tuple(names)

    def __enter__(self) -> "Instrumentation":
        # Import every repro module a by-name import could live in before
        # scanning sys.modules for holders of the original function.
        import repro  # noqa: F401
        import repro.api  # noqa: F401
        import repro.defenses  # noqa: F401
        import repro.service  # noqa: F401

        for name, target in self.entry_points.items():
            owner, attribute, original = _resolve(target)
            wrapped = self.tracer.wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapped)
                continue
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attribute) is original
                ):
                    self._patch(module, attribute, wrapped)
        if self.kernels:
            from repro.kernels import register_kernel_backend, set_kernel_backend

            register_kernel_backend(_counting_backend_class(self.tracer))
            self._previous_backend = set_kernel_backend(COUNTING_BACKEND)
        return self

    def _patch(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        if self.kernels:
            from repro.kernels import set_kernel_backend

            set_kernel_backend(self._previous_backend)


def check_wrappers(
    fired: Iterable[str], must_fire: Iterable[str], must_not_fire: Iterable[str]
) -> List[str]:
    """Problems with the wrapper set: dead wrappers and spans that should not fire."""
    fired = set(fired)
    problems = [f"wrapper {name} never fired" for name in must_fire if name not in fired]
    problems += [f"span {name} fired but must not" for name in must_not_fire if name in fired]
    return problems


def unexercised(installed: Iterable[str], exercised: Iterable[str]) -> List[str]:
    """Installed wrappers that no workload is meant to exercise."""
    exercised = set(exercised)
    return [f"wrapper {name} is exercised by no workload"
            for name in installed if name not in exercised]
