"""Baseline deadline-driven list scheduler (§5.4).

A list-scheduling version of earliest-deadline-first: at each step the
ready task (all predecessors scheduled) with the closest absolute
deadline is selected and placed on the *eligible* processor yielding the
earliest start time, accounting for

* the task's assigned arrival time,
* the processor's previous non-preemptive commitments,
* worst-case interprocessor communication delays from predecessors
  (zero when the predecessor ran on the same processor, §3.1), and
* (extension, §7.3) serialization on shared logical resources.

The schedule is *time-driven and non-preemptive*: once placed, a task
occupies ``[s_i, s_i + c_i]`` on its processor.  A task set succeeds
when every task can be placed with ``f_i <= D_i``; the default behaviour
fails fast on the first miss (what the success-ratio experiments count),
while ``continue_on_miss=True`` completes the schedule to expose the
maximum lateness (the secondary quality measure of §4.2, used by the
evaluation of reference [12]).
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

from ..core.assignment import DeadlineAssignment
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from ..system.interconnect import CommunicationModel
from ..system.platform import Platform
from ..types import Time
from .schedule import Schedule, ScheduledTask

__all__ = ["EdfListScheduler", "schedule_edf"]

#: The placement hooks the kernel loop reproduces.
_PLACEMENT_HOOKS = ("_initial_proc_free", "_best_placement", "_commit_transfers")


def keeps_placement(scheduler: "EdfListScheduler", base: type) -> bool:
    """Whether *scheduler* places tasks exactly as *base* does.

    A subclass that overrides a placement hook of *base* must take the
    reference loop: the kernel loop reproduces only the stock hooks.
    """
    cls = type(scheduler)
    return all(getattr(cls, h) is getattr(base, h) for h in _PLACEMENT_HOOKS)


class EdfListScheduler:
    """The paper's baseline task-assignment-and-scheduling algorithm.

    Parameters
    ----------
    continue_on_miss:
        When ``False`` (default, matching the success-ratio experiments)
        scheduling stops at the first deadline miss; when ``True`` the
        scheduler places every task anyway so lateness can be measured.
    """

    name = "EDF-LIST"

    def __init__(self, *, continue_on_miss: bool = False) -> None:
        self.continue_on_miss = continue_on_miss

    def schedule(
        self,
        graph: TaskGraph,
        platform: Platform,
        assignment: DeadlineAssignment,
        *,
        comm: CommunicationModel | None = None,
        predecessors: Mapping[str, Sequence[str]] | None = None,
        successors: Mapping[str, Sequence[str]] | None = None,
        compiled=None,
    ) -> Schedule:
        """Schedule *graph* on *platform* under *assignment* windows.

        ``predecessors``/``successors`` optionally inject the immediate
        adjacency of *graph* (both must cover every task), so callers
        that schedule the same graph repeatedly — e.g. the paired-trial
        experiment engine — derive it once instead of once per schedule.
        ``compiled`` optionally injects the workload's
        :class:`~repro.kernel.compiled.CompiledWorkload`; the stock
        scheduler then runs the integer-indexed kernel loop
        (bit-identical).  Subclasses that override placement hooks
        always take the reference loop.
        """
        if compiled is not None and type(self) is EdfListScheduler:
            return self._schedule_kernel(compiled, assignment, comm)

        comm_model = comm if comm is not None else platform.comm
        comm_model.reset()

        for tid in graph.task_ids():
            if tid not in assignment:
                raise SchedulingError(
                    f"task {tid!r} has no window in the deadline assignment"
                )

        proc_free = self._initial_proc_free(platform)
        resource_free: dict[str, Time] = {}
        # The graph is immutable for the duration of one schedule, so pin
        # the adjacency once instead of re-deriving it per placement probe.
        if predecessors is None:
            predecessors = {
                tid: graph.predecessors(tid) for tid in graph.task_ids()
            }
        if successors is None:
            successors = {
                tid: graph.successors(tid) for tid in graph.task_ids()
            }
        remaining_preds: dict[str, int] = {
            tid: len(preds) for tid, preds in predecessors.items()
        }
        processors = list(platform.processors())

        result = Schedule(scheduler_name=self.name)

        # Ready min-heap keyed by (absolute deadline, id) — deterministic.
        ready: list[tuple[Time, str]] = [
            (assignment.absolute_deadline(tid), tid)
            for tid, n in remaining_preds.items()
            if n == 0
        ]
        heapq.heapify(ready)

        while ready:
            _, tid = heapq.heappop(ready)
            task = graph.task(tid)
            window = assignment.window(tid)

            placement = self._best_placement(
                tid, task, graph, platform, result.entries, proc_free,
                resource_free, comm_model, window.arrival,
                predecessors=predecessors[tid], processors=processors,
            )
            if placement is None:
                result.feasible = False
                result.failed_task = tid
                result.failure_reason = (
                    f"task {tid!r} has no eligible processor on this platform"
                )
                return result
            proc_id, start, finish = placement

            # Commit transfers on the chosen processor.  For stateful
            # contention models the actual bus reservations may push the
            # data-ready time (and hence start/finish) past the nominal
            # estimate used for processor selection.
            data_ready = self._commit_transfers(
                tid, graph, platform, result.entries, comm_model, proc_id,
                predecessors=predecessors[tid],
            )
            if data_ready > start:
                resource_floor = max(
                    (resource_free.get(r, 0.0) for r in task.resources),
                    default=0.0,
                )
                start = max(
                    data_ready, proc_free[proc_id], resource_floor,
                    window.arrival,
                )
                finish = start + task.wcet_on(platform.class_of(proc_id))

            if finish > window.absolute_deadline + 1e-9:
                result.feasible = False
                if result.failed_task is None:
                    result.failed_task = tid
                    result.failure_reason = (
                        f"task {tid!r} finishes at {finish:g} past its "
                        f"absolute deadline {window.absolute_deadline:g}"
                    )
                if not self.continue_on_miss:
                    return result

            result.entries[tid] = ScheduledTask(
                task_id=tid,
                processor=proc_id,
                start=start,
                finish=finish,
                arrival=window.arrival,
                absolute_deadline=window.absolute_deadline,
            )
            proc_free[proc_id] = finish
            for res in task.resources:
                resource_free[res] = finish

            for succ in successors[tid]:
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    heapq.heappush(
                        ready, (assignment.absolute_deadline(succ), succ)
                    )

        if len(result.entries) != graph.n_tasks and result.feasible:
            raise SchedulingError(
                "ready queue drained before all tasks were scheduled "
                "(the task graph must be cyclic)"
            )
        return result

    # ------------------------------------------------------------------
    def _schedule_kernel(
        self,
        compiled,
        assignment: DeadlineAssignment,
        comm: CommunicationModel | None,
        *,
        key: Sequence[Time] | None = None,
        fixed: Sequence[int] | None = None,
    ) -> Schedule:
        """Run the compiled-kernel loop and materialize a Schedule.

        *key* and *fixed* are :func:`~repro.kernel.edf.kernel_schedule_edf`'s
        ready-queue priorities and pinned processors, for the
        subclasses whose policy the kernel loop reproduces.
        """
        from ..kernel.edf import kernel_schedule_edf

        win_a = [0.0] * compiled.n
        win_d = [0.0] * compiled.n
        for i, tid in enumerate(compiled.ids):
            if tid not in assignment:
                raise SchedulingError(
                    f"task {tid!r} has no window in the deadline assignment"
                )
            w = assignment.window(tid)
            win_a[i] = w.arrival
            win_d[i] = w.absolute_deadline
        ks = kernel_schedule_edf(
            compiled,
            win_a,
            win_d,
            comm=comm,
            continue_on_miss=self.continue_on_miss,
            key=key,
            fixed=fixed,
        )
        return ks.to_schedule(self.name)

    def _initial_proc_free(self, platform: Platform) -> dict[str, Time]:
        """Per-processor earliest availability (override to warm-start)."""
        return {p.id: 0.0 for p in platform.processors()}

    def _best_placement(
        self,
        tid: str,
        task,
        graph: TaskGraph,
        platform: Platform,
        entries: Mapping[str, ScheduledTask],
        proc_free: Mapping[str, Time],
        resource_free: Mapping[str, Time],
        comm_model: CommunicationModel,
        arrival: Time,
        predecessors: Sequence[str] | None = None,
        processors: Sequence | None = None,
    ) -> tuple[str, Time, Time] | None:
        """Pick the eligible processor with the earliest start time.

        Processor choice uses the *nominal* communication cost even for
        stateful contention models (reservations are committed only for
        the chosen processor); ties break on earlier finish, then on
        processor id, keeping the scheduler deterministic.
        ``predecessors``/``processors`` optionally inject the adjacency
        and processor list (the main loop pins both once per schedule).
        """
        if predecessors is None:
            predecessors = graph.predecessors(tid)
        if processors is None:
            processors = list(platform.processors())
        if task.resources:
            resource_floor = max(
                (resource_free.get(r, 0.0) for r in task.resources),
                default=0.0,
            )
        else:
            resource_floor = 0.0
        # The placed predecessors, their finish times, and the message
        # sizes do not depend on the probed processor: resolve them once
        # instead of once per processor.
        incoming = []
        for pred in predecessors:
            entry = entries.get(pred)
            if entry is None:
                # continue_on_miss keeps going after failures; an
                # unplaced predecessor cannot happen otherwise.
                continue
            incoming.append(
                (entry.processor, entry.finish, graph.message_size(pred, tid))
            )
        cost = comm_model.cost
        wcet = task.wcet
        best: tuple[Time, Time, str] | None = None
        for proc in processors:
            # Ineligible classes are absent from the WCET map, so one
            # lookup answers eligibility and execution time together.
            c = wcet.get(proc.cls)
            if c is None:
                continue
            dst = proc.id
            start = arrival
            for src, pred_finish, size in incoming:
                # cost() is 0 for co-located tasks (CommunicationModel
                # contract), so skip the model call on the same processor.
                ready = (
                    pred_finish if src == dst
                    else pred_finish + cost(src, dst, size)
                )
                if ready > start:
                    start = ready
            free = proc_free[dst]
            if free > start:
                start = free
            if resource_floor > start:
                start = resource_floor
            key = (start, start + c, dst)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        start, finish, proc_id = best
        return proc_id, start, finish

    def _commit_transfers(
        self,
        tid: str,
        graph: TaskGraph,
        platform: Platform,
        entries: Mapping[str, ScheduledTask],
        comm_model: CommunicationModel,
        proc_id: str,
        predecessors: Sequence[str] | None = None,
    ) -> Time:
        """Reserve bus time for the chosen placement; return data-ready time."""
        if predecessors is None:
            predecessors = graph.predecessors(tid)
        data_ready = 0.0
        for pred in predecessors:
            entry = entries.get(pred)
            if entry is None:
                continue
            if entry.processor == proc_id:
                data_ready = max(data_ready, entry.finish)
                continue
            arrived = comm_model.transfer(
                entry.processor,
                proc_id,
                graph.message_size(pred, tid),
                entry.finish,
            )
            data_ready = max(data_ready, arrived)
        return data_ready


def schedule_edf(
    graph: TaskGraph,
    platform: Platform,
    assignment: DeadlineAssignment,
    *,
    continue_on_miss: bool = False,
    comm: CommunicationModel | None = None,
) -> Schedule:
    """Convenience wrapper around :class:`EdfListScheduler`."""
    return EdfListScheduler(continue_on_miss=continue_on_miss).schedule(
        graph, platform, assignment, comm=comm
    )
