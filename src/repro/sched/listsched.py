"""Alternative list-scheduling policies (§7.3 future work).

The paper's baseline selects ready tasks by earliest absolute deadline
(EDF).  To explore how the deadline-distribution metrics behave under
other task-assignment-and-scheduling policies, this module provides the
same greedy list-scheduling skeleton with pluggable priority rules:

* :class:`StaticLevelScheduler` — highest static level first (the
  classical HLFET rule): deadline-agnostic, favours the critical path;
* :class:`FifoScheduler` — earliest assigned arrival time first
  (deadline-agnostic, time-driven dispatch order);
* :class:`LaxityScheduler` — least *static* laxity (``d_i − c̄_i``)
  first.  Deliberately cautionary: laxity ordering ignores the
  timeline, so the policy commits far-future tight-window tasks first
  and starves the early windows — a vivid demonstration that the
  slicing windows encode *when*, not just *how urgent*.

All policies share the placement rule of the baseline (§5.4): the
eligible processor yielding the earliest start time, accounting for
communication and arrival constraints, with shared-resource
serialization.  They reuse :class:`~repro.sched.edf.EdfListScheduler`'s
machinery by overriding the ready-queue key; given the workload's
``compiled`` form, they run the kernel loop with that key
(:func:`repro.kernel.edf.kernel_schedule_edf`), bit-identical to the
reference loop, which stays as its oracle.
"""

from __future__ import annotations

from typing import Mapping

from ..core.assignment import DeadlineAssignment
from ..errors import SchedulingError
from ..graph.algorithms import static_levels
from ..graph.taskgraph import TaskGraph
from ..types import Time
from .edf import EdfListScheduler, keeps_placement

__all__ = [
    "StaticLevelScheduler",
    "FifoScheduler",
    "LaxityScheduler",
    "get_scheduler",
    "SCHEDULER_NAMES",
]


class _KeyedListScheduler(EdfListScheduler):
    """List scheduler whose ready-queue priority is a pluggable key."""

    def priorities(
        self, graph: TaskGraph, assignment: DeadlineAssignment
    ) -> Mapping[str, Time]:
        """Smaller value == higher priority; must cover every task."""
        raise NotImplementedError

    def schedule(
        self,
        graph,
        platform,
        assignment,
        *,
        comm=None,
        predecessors=None,
        successors=None,
        compiled=None,
    ):
        keys = self.priorities(graph, assignment)
        missing = [t for t in graph.task_ids() if t not in keys]
        if missing:
            raise SchedulingError(
                f"priority rule left tasks unprioritized: {missing[:5]}"
            )
        if compiled is not None and keeps_placement(self, EdfListScheduler):
            # The kernel loop orders its heap by the key array and
            # reads windows from the real assignment.
            return self._schedule_kernel(
                compiled,
                assignment,
                comm,
                key=[keys[tid] for tid in compiled.ids],
            )
        # The base class consults assignment.absolute_deadline() only to
        # order its ready heap; window lookups (arrival constraints,
        # deadline-miss checks) read the window object directly.  A
        # proxy substitutes the priority key for the heap ordering while
        # delegating windows to the real assignment.
        proxy = _PriorityProxy(assignment, dict(keys))
        return super().schedule(
            graph,
            platform,
            proxy,
            comm=comm,
            predecessors=predecessors,
            successors=successors,
        )


class _PriorityProxy:
    """Assignment proxy whose ``absolute_deadline`` is the priority key.

    The EDF machinery orders its ready heap by ``absolute_deadline``;
    the proxy substitutes an arbitrary priority there while delegating
    window lookups (arrival, deadline-miss checks) to the real
    assignment via :meth:`window`.
    """

    def __init__(
        self, assignment: DeadlineAssignment, keys: Mapping[str, Time]
    ) -> None:
        self._assignment = assignment
        self._keys = keys

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._assignment

    def window(self, task_id: str):
        return self._assignment.window(task_id)

    def arrival(self, task_id: str) -> Time:
        return self._assignment.arrival(task_id)

    def absolute_deadline(self, task_id: str) -> Time:
        return self._keys[task_id]


class StaticLevelScheduler(_KeyedListScheduler):
    """Highest static level first (HLFET): critical-path-driven."""

    name = "SL-LIST"

    def priorities(self, graph, assignment):
        levels = static_levels(graph, lambda t: graph.task(t).mean_wcet())
        # higher level == higher priority == smaller key
        return {tid: -level for tid, level in levels.items()}


class FifoScheduler(_KeyedListScheduler):
    """Earliest assigned arrival first (time-driven dispatch order)."""

    name = "FIFO-LIST"

    def priorities(self, graph, assignment):
        return {tid: assignment.arrival(tid) for tid in graph.task_ids()}


class LaxityScheduler(_KeyedListScheduler):
    """Least static laxity first (LLF on the assignment windows)."""

    name = "LLF-LIST"

    def priorities(self, graph, assignment):
        out: dict[str, Time] = {}
        for tid in graph.task_ids():
            w = assignment.window(tid)
            out[tid] = w.relative_deadline - graph.task(tid).mean_wcet()
        return out


#: Scheduler registry (non-preemptive list-scheduling family).
SCHEDULER_NAMES: tuple[str, ...] = (
    "EDF-LIST",
    "SL-LIST",
    "FIFO-LIST",
    "LLF-LIST",
)


_SCHEDULER_CLASSES: dict[str, type[EdfListScheduler]] = {
    "EDF-LIST": EdfListScheduler,
    "EDF": EdfListScheduler,
    "SL-LIST": StaticLevelScheduler,
    "SL": StaticLevelScheduler,
    "HLFET": StaticLevelScheduler,
    "FIFO-LIST": FifoScheduler,
    "FIFO": FifoScheduler,
    "LLF-LIST": LaxityScheduler,
    "LLF": LaxityScheduler,
}

#: Shared instances keyed by (class, continue_on_miss).  The list
#: schedulers hold no per-run state (``schedule`` builds everything it
#: mutates locally), so the experiment engines can call
#: :func:`get_scheduler` once per trial per series without paying a
#: construction each time.
_SCHEDULER_CACHE: dict[tuple[type, bool], EdfListScheduler] = {}


def get_scheduler(name: str, *, continue_on_miss: bool = False):
    """Resolve a list scheduler by registry name (shared instances)."""
    cls = _SCHEDULER_CLASSES.get(name.upper())
    if cls is None:
        raise SchedulingError(
            f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}"
        )
    key = (cls, continue_on_miss)
    scheduler = _SCHEDULER_CACHE.get(key)
    if scheduler is None:
        scheduler = cls(continue_on_miss=continue_on_miss)
        _SCHEDULER_CACHE[key] = scheduler
    return scheduler
