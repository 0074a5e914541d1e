"""Kernelized EDF list scheduling over a compiled workload (§5.4).

The int-indexed twin of :meth:`repro.sched.edf.EdfListScheduler.schedule`:
the ready queue heap-operates on ``(absolute_deadline, task_rank,
task_index)`` tuples, placement probes read execution times straight
from the dense WCET matrix (``-1.0`` = ineligible), and co-located
predecessors skip the communication model entirely.  Two optional
arrays make it the twin of the other stock list schedulers too: a
ready-queue ``key`` (the SL/FIFO/LLF priorities of
:mod:`repro.sched.listsched`) and a ``fixed`` processor per task (the
strict-locality :class:`~repro.assign.FixedAssignmentEdfScheduler`).  The
:class:`~repro.system.interconnect.SharedBus` cost formula is inlined
(it is the default model everywhere); any other model — including the
stateful :class:`~repro.system.interconnect.ContentionBus`, whose
``transfer`` calls must happen in exactly the reference order — goes
through the model object with the original processor-id strings.

Bit-identity notes:

* heap tie-breaks compare precomputed string ranks, which order like
  the reference's ``(deadline, tid)`` (or ``(key, tid)``) string
  tuples; entries are unique per task, so the pop sequence is
  identical;
* the placement key ``(start, finish, proc_rank)`` reproduces the
  reference's ``(start, start + c, proc_id)`` processor tie-break;
* every float expression (start maximization, the post-commit
  ``max(data_ready, free, floor, arrival)``, the ``+ 1e-9`` miss
  tolerance) is copied verbatim;
* on a deadline miss under fail-fast the missed task is *not* recorded
  (the reference returns before appending), so makespan/lateness see
  the same partial schedule.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from ..errors import SchedulingError
from ..sched.schedule import Schedule, ScheduledTask
from ..system.interconnect import CommunicationModel, SharedBus
from .compiled import CompiledWorkload

__all__ = ["KernelSchedule", "kernel_schedule_edf", "MISS_TOLERANCE"]

#: The reference scheduler's absolute-deadline slack for the miss test
#: (``finish > absdl + MISS_TOLERANCE``) — shared with the vectorized
#: batch engine so both paths apply the very same float expression.
MISS_TOLERANCE = 1e-9


class KernelSchedule:
    """Array-form (possibly partial) schedule from :func:`kernel_schedule_edf`."""

    __slots__ = (
        "cw",
        "feasible",
        "failed",
        "failure_reason",
        "placed",
        "order",
        "start",
        "finish",
        "proc_of",
        "win_a",
        "win_d",
    )

    def __init__(self, cw: CompiledWorkload, win_a, win_d) -> None:
        n = cw.n
        self.cw = cw
        self.feasible = True
        self.failed: int = -1
        self.failure_reason = ""
        self.placed = bytearray(n)
        self.order: list[int] = []  # placement order (= entries dict order)
        self.start = [0.0] * n
        self.finish = [0.0] * n
        self.proc_of = [-1] * n
        self.win_a = win_a
        self.win_d = win_d

    @property
    def failed_task(self) -> str | None:
        return self.cw.ids[self.failed] if self.failed >= 0 else None

    @property
    def makespan(self) -> float:
        """Latest finish over placed tasks (0 when empty) — exact max."""
        finish = self.finish
        return max((finish[i] for i in self.order), default=0.0)

    def max_lateness(self) -> float:
        """``max_i (f_i − D_i)`` over placed tasks — exact max."""
        if not self.order:
            raise SchedulingError("empty schedule has no lateness")
        finish, win_d = self.finish, self.win_d
        return max(finish[i] - win_d[i] for i in self.order)

    def to_schedule(self, scheduler_name: str = "EDF-LIST") -> Schedule:
        """Materialize the reference :class:`Schedule` (bit-identical,
        including the entries' placement-order dict insertion)."""
        cw = self.cw
        ids = cw.ids
        proc_ids = cw.placement().proc_ids
        sched = Schedule(
            feasible=self.feasible,
            failed_task=self.failed_task,
            failure_reason=self.failure_reason,
            scheduler_name=scheduler_name,
        )
        for i in self.order:
            sched.entries[ids[i]] = ScheduledTask(
                task_id=ids[i],
                processor=proc_ids[self.proc_of[i]],
                start=self.start[i],
                finish=self.finish[i],
                arrival=self.win_a[i],
                absolute_deadline=self.win_d[i],
            )
        return sched


def kernel_schedule_edf(
    cw: CompiledWorkload,
    win_a: Sequence[float],
    win_d: Sequence[float],
    *,
    comm: CommunicationModel | None = None,
    continue_on_miss: bool = False,
    key: Sequence[float] | None = None,
    fixed: Sequence[int] | None = None,
) -> KernelSchedule:
    """EDF-list-schedule the compiled workload under the given windows.

    *win_a*/*win_d* are insertion-indexed arrival/absolute-deadline
    arrays (e.g. from a :class:`~repro.kernel.slicing.KernelAssignment`,
    which always covers every task).  *comm* defaults to the platform's
    model; its state is reset first, like the reference.

    *key*, when given, orders the ready queue in place of *win_d*
    (smaller first, ties by task id), as the reference's ``(key, id)``
    heap does; windows still decide arrivals and misses.  *fixed*, when
    given, pins each task to one processor index (in
    ``cw.placement().proc_ids`` order) instead of probing every eligible
    one; a task pinned to a processor it is ineligible on raises the
    reference's :class:`~repro.errors.SchedulingError` when it is
    dispatched.
    """
    comm_model = comm if comm is not None else cw.platform.comm
    comm_model.reset()

    n, m = cw.n, cw.m
    ids = cw.ids
    rank = cw.rank
    pred_ps = cw.pred_ps
    succ_lists = cw.succ_lists
    placement = cw.placement()
    wcet_pp = placement.wcet_pp
    elig_rows = placement.elig_rows
    proc_ids = placement.proc_ids
    proc_rank = placement.proc_rank
    resources = placement.resources
    has_resources = placement.has_resources

    shared_bus = type(comm_model) is SharedBus
    per_item = comm_model.per_item_delay if shared_bus else 0.0
    cost = comm_model.cost
    transfer = comm_model.transfer

    result = KernelSchedule(cw, win_a, win_d)
    placed = result.placed
    order = result.order
    start_arr = result.start
    finish_arr = result.finish
    proc_of = result.proc_of

    proc_free = [0.0] * m
    resource_free: dict[str, float] = {}
    indeg_rem = list(cw.indeg)
    prio = win_d if key is None else key
    ready = [
        (prio[i], rank[i], i) for i in range(n) if indeg_rem[i] == 0
    ]
    heapq.heapify(ready)
    heappop = heapq.heappop
    heappush = heapq.heappush

    while ready:
        _, _, i = heappop(ready)
        arrival = win_a[i]
        absdl = win_d[i]

        res = resources[i] if has_resources else ()
        if res:
            resource_floor = max(
                (resource_free.get(r, 0.0) for r in res), default=0.0
            )
        else:
            resource_floor = 0.0

        # Placed predecessors, their finishes, and message sizes do not
        # depend on the probed processor: resolve them once.  On the
        # shared bus the cross-processor arrival time is probe-invariant
        # too, so it is precomputed per edge (same operands, same bits).
        preds_i = pred_ps[i]
        if shared_bus:
            incoming = [
                (proc_of[p], finish_arr[p], finish_arr[p] + size * per_item)
                for p, size in preds_i
                if placed[p]
            ]
        else:
            incoming = [
                (proc_of[p], finish_arr[p], size)
                for p, size in preds_i
                if placed[p]
            ]

        # Probe every eligible processor with nominal costs.  The best
        # placement is tracked as scalars under the reference's
        # (start, finish, proc-id) lexicographic order — ranks compare
        # like the id strings and are unique, so no further tie-break
        # component is needed.
        if fixed is None:
            probes = elig_rows[i]
        else:
            pin = fixed[i]
            c = wcet_pp[i * m + pin]
            if c < 0.0:
                pid = proc_ids[pin]
                raise SchedulingError(
                    f"strict assignment places task {ids[i]!r} on "
                    f"processor {pid!r} (class "
                    f"{cw.platform.class_of(pid)!r}) where it is ineligible"
                )
            probes = ((pin, c),)
        q = -1
        start = finish = 0.0
        b_rank = 0
        for cand_q, c in probes:
            s = arrival
            if shared_bus:
                for sq, pf, arrived in incoming:
                    ready_t = pf if sq == cand_q else arrived
                    if ready_t > s:
                        s = ready_t
            else:
                for sq, pf, size in incoming:
                    if sq == cand_q:
                        ready_t = pf
                    else:
                        ready_t = pf + cost(
                            proc_ids[sq], proc_ids[cand_q], size
                        )
                    if ready_t > s:
                        s = ready_t
            free = proc_free[cand_q]
            if free > s:
                s = free
            if resource_floor > s:
                s = resource_floor
            if q < 0 or s < start:
                q = cand_q
                start = s
                finish = s + c
                b_rank = proc_rank[cand_q]
            elif s == start:
                f = s + c
                if f < finish or (f == finish and proc_rank[cand_q] < b_rank):
                    q = cand_q
                    finish = f
                    b_rank = proc_rank[cand_q]
        if q < 0:
            result.feasible = False
            result.failed = i
            result.failure_reason = (
                f"task {ids[i]!r} has no eligible processor on this platform"
            )
            return result

        # Commit transfers on the chosen processor (stateful models may
        # push the data-ready time past the nominal estimate).  The
        # ``incoming`` list is the placed-predecessor subsequence in
        # predecessor order, so walking it preserves the reference's
        # ``transfer`` call sequence.
        data_ready = 0.0
        if shared_bus:
            for sq, pf, arrived in incoming:
                v = pf if sq == q else arrived
                if v > data_ready:
                    data_ready = v
        else:
            for sq, pf, size in incoming:
                if sq == q:
                    if pf > data_ready:
                        data_ready = pf
                    continue
                arrived = transfer(proc_ids[sq], proc_ids[q], size, pf)
                if arrived > data_ready:
                    data_ready = arrived
        if data_ready > start:
            resource_floor = max(
                (resource_free.get(r, 0.0) for r in res), default=0.0
            )
            start = max(data_ready, proc_free[q], resource_floor, arrival)
            finish = start + wcet_pp[i * m + q]

        if finish > absdl + MISS_TOLERANCE:
            result.feasible = False
            if result.failed < 0:
                result.failed = i
                result.failure_reason = (
                    f"task {ids[i]!r} finishes at {finish:g} past its "
                    f"absolute deadline {absdl:g}"
                )
            if not continue_on_miss:
                return result

        placed[i] = 1
        order.append(i)
        start_arr[i] = start
        finish_arr[i] = finish
        proc_of[i] = q
        proc_free[q] = finish
        for r in res:
            resource_free[r] = finish

        for j in succ_lists[i]:
            left = indeg_rem[j] - 1
            indeg_rem[j] = left
            if not left:
                heappush(ready, (prio[j], rank[j], j))

    if len(order) != n and result.feasible:
        raise SchedulingError(
            "ready queue drained before all tasks were scheduled "
            "(the task graph must be cyclic)"
        )
    return result
