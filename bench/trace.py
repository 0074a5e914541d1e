"""Layer timing shims for a traced run, and the arithmetic over their spans.

:func:`install` wraps the public entry point of every layer listed in
:data:`TARGETS`, each as soon as its defining module is imported.  A
function is replaced at its defining module and in every ``repro.*`` module
global bound to the same object, so ``from ... import`` copies are wrapped
too; methods are replaced on their class.  Each call records one span
``[name, thread, id, parent, start, end, n]`` where *parent* is the
enclosing span on the same thread (0 at top level) and *n* an optional
count taken from the call (lanes, hits, records).

Each process appends its spans to ``<trace_dir>/<pid>.spans``: a daemon
thread flushes every :data:`FLUSH_INTERVAL` seconds and ``atexit`` flushes
the rest.  Service pool workers leave through ``os._exit``, so whoever stops
a traced server waits at least one interval first.

Nothing here imports ``repro``.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, NamedTuple

FLUSH_INTERVAL = 0.25


def _lanes(args: tuple, result: Any) -> int:
    return len(args[0])


def _paired_lanes(args: tuple, result: Any) -> int:
    return len(args[0]) * len(args[1])


def _hit(args: tuple, result: Any) -> int:
    return int(result is not None)


def _returned(args: tuple, result: Any) -> int:
    return int(result)


#: ``(span name, defining module, attribute, count)`` of every wrapped
#: entry point.  Several targets may share a span name (one layer).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("workload.generate", "repro.workload.generator", "generate_workload", None),
    ("kernel.compile", "repro.kernel.compiled", "compile_workload", None),
    ("kernel.weights", "repro.kernel.metrics", "kernel_weights", None),
    ("kernel.slice", "repro.kernel.slicing", "kernel_slice", None),
    ("kernel.edf", "repro.kernel.edf", "kernel_schedule_edf", None),
    ("vec.estimates", "repro.kernel.vec", "vec_estimates_batch", None),
    ("vec.weights", "repro.kernel.vec", "vec_weights_batch", None),
    ("vec.edf", "repro.kernel.vec", "vec_schedule_edf_batch", _lanes),
    ("vec.batch", "repro.kernel.vec", "paired_outcomes", _paired_lanes),
    ("core.distribute", "repro.core.slicing", "distribute_deadlines", None),
    ("sched.schedule", "repro.sched.edf", "EdfListScheduler.schedule", None),
    ("sched.schedule", "repro.sched.listsched", "_KeyedListScheduler.schedule", None),
    ("sched.schedule", "repro.sched.preemptive", "PreemptiveEdfScheduler.schedule", None),
    ("sched.schedule", "repro.sched.annealing", "SimulatedAnnealingScheduler.schedule", None),
    ("experiments.run", "repro.experiments.runner", "run_experiment", None),
    ("experiments.cells", "repro.experiments.runner", "run_paired_cells", None),
    ("experiments.trial", "repro.experiments.runner", "run_trial", None),
    ("experiments.report", "repro.experiments.report", "render_report", None),
    ("experiments.report", "repro.experiments.report", "save_json", None),
    ("experiments.report", "repro.experiments.report", "save_csv", None),
    ("experiments.report", "repro.experiments.report", "result_markdown", None),
    ("store.open", "repro.store.trialstore", "TrialStore.__init__", None),
    ("store.get", "repro.store.trialstore", "TrialStore.get", _hit),
    ("store.put", "repro.store.trialstore", "TrialStore.put_many", _returned),
    ("fabric.shard", "repro.fabric.coordinator", "FabricCoordinator.__init__", None),
    ("fabric.spawn", "repro.fabric.coordinator", "FabricCoordinator.spawn_workers", None),
    ("fabric.execute", "repro.fabric.coordinator", "FabricCoordinator.execute", None),
    ("fabric.merge", "repro.fabric.coordinator", "FabricCoordinator.merge", None),
    ("fabric.lease", "repro.fabric.queue", "WorkQueue.lease_batch", None),
    ("fabric.commit", "repro.fabric.queue", "WorkQueue.complete_batch", None),
    ("fabric.heartbeat", "repro.fabric.queue", "WorkQueue.heartbeat", None),
    ("fabric.compute", "repro.fabric.units", "compute_units", None),
    ("fabric.worker", "repro.fabric.worker", "worker_loop", None),
    ("service.parse", "repro.service.api", "request_from_dict", None),
    ("service.digest", "repro.service.api", "request_digest", None),
    ("service.serialize", "repro.service.api", "response_to_dict", None),
    ("service.cache_get", "repro.service.cache", "AssignmentCache.get", None),
    ("service.assign", "repro.service.server", "DeadlineAssignmentService.assign", None),
    # Measured from submit until the returned future resolves; the span
    # has no parent and no children (the work runs in a pool process).
    ("service.pool_rtt", "repro.service.pool", "WorkerPool.submit", None),
)

#: Span names whose duration runs from a call until its future resolves.
FUTURE_SPANS = frozenset({"service.pool_rtt"})


class Span(NamedTuple):
    name: str
    pid: int
    tid: int
    sid: int
    parent: int
    start: float
    end: float
    n: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: One span per line, tab-separated; ``%r`` keeps every digit of a float.
_LINE = "%s\t%d\t%d\t%d\t%r\t%r\t%s\n"


class Recorder:
    """Span buffer of one process and the file it flushes to."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.spans: list[list] = []
        self.ids = itertools.count(1)
        self._local = threading.local()
        self._flush_lock = threading.Lock()

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def flush(self) -> None:
        with self._flush_lock:
            batch = self.spans[:]
            if not batch:
                return
            # Appends from other threads land after the copied prefix.
            del self.spans[: len(batch)]
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.writelines(_LINE % tuple(span) for span in batch)

    def _flush_forever(self) -> None:
        while True:
            time.sleep(FLUSH_INTERVAL)
            self.flush()

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, ids, stack_of = self.spans, self.ids, self.stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            n = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append([name, threading.get_ident(), sid, parent, start, end, n])

        return shim

    def wrap_future(self, name: str, fn: Callable) -> Callable:
        spans, ids = self.spans, self.ids

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            start = perf_counter()
            future = fn(*args, **kwargs)
            tid = threading.get_ident()

            def done(_future) -> None:
                spans.append([name, tid, next(ids), 0, start, perf_counter(), None])

            future.add_done_callback(done)
            return future

        return shim


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs *patch* on a target module right after the module executes,
    before any other module can copy its functions by ``from ... import``.

    Patching on import, not up front, keeps a traced process from importing
    layers it never uses (the service stack costs a figures run ~80 ms).
    """

    def __init__(self, patch: Callable[[ModuleType], None], pending: set[str]) -> None:
        self._patch = patch
        self._pending = pending

    def find_spec(self, name, path, target=None):
        if name not in self._pending:
            return None
        self._pending.discard(name)
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module: ModuleType) -> None:
            exec_module(module)
            self._patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(trace_dir: str | Path) -> Recorder:
    """Wrap every target in this process and start flushing spans."""
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(trace_dir / f"{os.getpid()}.spans")
    by_module: dict[str, list] = defaultdict(list)
    for target in TARGETS:
        by_module[target[1]].append(target)
    replaced: dict[int, tuple[Callable, Callable]] = {}

    def patch(module: ModuleType) -> None:
        for name, _module, attr, count in by_module[module.__name__]:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[fn_name]
            if name in FUTURE_SPANS:
                shim = recorder.wrap_future(name, original)
            else:
                shim = recorder.wrap(name, original, count)
            setattr(owner, fn_name, shim)
            replaced[id(original)] = (original, shim)
        for other in _repro_modules():
            for key, value in list(vars(other).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(other, key, hit[1])

    pending = set(by_module)
    for module_name in sorted(pending & set(sys.modules)):
        pending.discard(module_name)
        patch(sys.modules[module_name])
    sys.meta_path.insert(0, _PatchOnImport(patch, pending))
    threading.Thread(
        target=recorder._flush_forever, name="bench-trace-flush", daemon=True
    ).start()
    atexit.register(recorder.flush)
    return recorder


def _repro_modules() -> list[ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def unwrapped_references() -> list[str]:
    """``module.global`` names still bound to an original target, among the
    modules imported so far.  Empty after :func:`install`; the
    shim-coverage test checks that."""
    originals = {}
    for _name, module_name, attr, _count in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        current = vars(owner)[fn_name]
        original = getattr(current, "__wrapped__", current)
        originals[id(original)] = original
    found = []
    for module in _repro_modules():
        for key, value in vars(module).items():
            if id(value) in originals and originals[id(value)] is value:
                found.append(f"{module.__name__}.{key}")
    return found


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------


def load_spans(trace_dir: str | Path) -> list[Span]:
    """Every span flushed under *trace_dir*, from all processes."""
    spans = []
    for path in sorted(Path(trace_dir).glob("*.spans")):
        pid = int(path.stem)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, tid, sid, parent, start, end, n = line.split("\t")
                spans.append(Span(name, pid, int(tid), int(sid), int(parent),
                                  float(start), float(end),
                                  None if n == "None\n" else int(n)))
    return spans


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Self time of each span, keyed by ``(pid, span id)``.

    A span's self time is its duration minus the time its child spans
    cover.  Children run on the parent's thread and nest inside it, so
    they never overlap one another and their durations simply add up.
    """
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[(span.pid, span.parent)] += span.seconds
    return {
        (span.pid, span.sid): span.seconds - covered[(span.pid, span.sid)]
        for span in spans
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced run (busy seconds are self time)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(name: str) -> float:
        return sum(own[(s.pid, s.sid)] for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def counted(name: str) -> int:
        return sum(s.n or 0 for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    batches = {(s.pid, s.sid) for s in by_name["vec.batch"]}
    retried = sum(1 for s in by_name["experiments.trial"] if (s.pid, s.parent) in batches)
    worker_time = sum(s.seconds for s in by_name["fabric.worker"])
    compute_time = sum(s.seconds for s in by_name["fabric.compute"])
    return {
        "workload.generate_s": busy("workload.generate"),
        "workload.generate_calls": calls("workload.generate"),
        "kernel.compile_s": busy("kernel.compile"),
        "kernel.weights_s": busy("kernel.weights"),
        "kernel.slice_s": busy("kernel.slice"),
        "kernel.slice_calls": calls("kernel.slice"),
        "kernel.edf_s": busy("kernel.edf"),
        "vec.estimates_s": busy("vec.estimates"),
        "vec.weights_s": busy("vec.weights"),
        "vec.edf_s": busy("vec.edf"),
        "vec.edf_lanes": counted("vec.edf"),
        "vec.batch_s": busy("vec.batch"),
        "vec.batch_calls": calls("vec.batch"),
        "vec.retry_ratio": ratio(retried, counted("vec.batch")),
        "core.distribute_s": busy("core.distribute"),
        "core.distribute_calls": calls("core.distribute"),
        "sched.schedule_s": busy("sched.schedule"),
        "experiments.run_s": busy("experiments.run"),
        "experiments.cells_s": busy("experiments.cells"),
        "experiments.trial_s": busy("experiments.trial"),
        "experiments.trial_calls": calls("experiments.trial"),
        "experiments.report_s": busy("experiments.report"),
        "store.open_s": busy("store.open"),
        "store.get_s": busy("store.get"),
        "store.get_calls": calls("store.get"),
        "store.hit_ratio": ratio(counted("store.get"), calls("store.get")),
        "store.put_s": busy("store.put"),
        "store.put_records": counted("store.put"),
        "fabric.shard_s": busy("fabric.shard"),
        "fabric.spawn_s": busy("fabric.spawn"),
        "fabric.lease_s": busy("fabric.lease"),
        "fabric.lease_calls": calls("fabric.lease"),
        "fabric.commit_s": busy("fabric.commit"),
        "fabric.heartbeat_s": busy("fabric.heartbeat"),
        "fabric.compute_s": busy("fabric.compute"),
        "fabric.compute_coverage": ratio(
            compute_time - busy("fabric.compute"), compute_time
        ),
        "fabric.worker_idle_s": busy("fabric.worker"),
        "fabric.worker_util": ratio(worker_time - busy("fabric.worker"), worker_time),
        "fabric.coord_wait_s": busy("fabric.execute"),
        "fabric.merge_s": busy("fabric.merge"),
        "service.parse_s": busy("service.parse"),
        "service.parse_calls": calls("service.parse"),
        "service.digest_s": busy("service.digest"),
        "service.cache_get_s": busy("service.cache_get"),
        "service.serialize_s": busy("service.serialize"),
        "service.assign_s": busy("service.assign"),
        "service.pool_rtt_s": busy("service.pool_rtt"),
    }


def covered_seconds(spans: list[Span], pid: int) -> float:
    """Seconds of process *pid* spent inside any top-level layer span."""
    return sum(
        s.seconds
        for s in spans
        if s.pid == pid and s.parent == 0 and s.name not in FUTURE_SPANS
    )
