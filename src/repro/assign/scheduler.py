"""EDF list scheduling under a strict (pre-fixed) task assignment.

Identical to the baseline of §5.4 except that each task's processor is
dictated by a :class:`~repro.assign.clustering.TaskAssignment` instead
of chosen greedily — the conventional strict-locality regime the paper
contrasts with.  Given the workload's ``compiled`` form it runs the
kernel loop with the pinned processors
(:func:`repro.kernel.edf.kernel_schedule_edf`); the reference loop
below stays as its oracle.
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..sched.edf import EdfListScheduler, keeps_placement
from .clustering import TaskAssignment

__all__ = ["FixedAssignmentEdfScheduler"]


class FixedAssignmentEdfScheduler(EdfListScheduler):
    """EDF dispatch with task placement fixed by a strict assignment."""

    name = "EDF-FIXED"

    def __init__(
        self, assignment: TaskAssignment, *, continue_on_miss: bool = False
    ) -> None:
        super().__init__(continue_on_miss=continue_on_miss)
        self._fixed = assignment

    def schedule(self, graph, platform, assignment, *, compiled=None, **kw):
        if compiled is not None and keeps_placement(
            self, FixedAssignmentEdfScheduler
        ):
            proc_ids = compiled.placement().proc_ids
            index = {pid: q for q, pid in enumerate(proc_ids)}
            mapping = self._fixed.mapping
            fixed = [index.get(mapping.get(tid)) for tid in compiled.ids]
            # An unassigned task or an unknown processor fails in the
            # reference loop, when and where the reference meets it.
            if None not in fixed:
                return self._schedule_kernel(
                    compiled, assignment, kw.get("comm"), fixed=fixed
                )
        return super().schedule(graph, platform, assignment, **kw)

    def _best_placement(
        self,
        tid,
        task,
        graph,
        platform,
        entries,
        proc_free,
        resource_free,
        comm_model,
        arrival,
        predecessors=None,
        processors=None,
    ):
        proc_id = self._fixed.processor_of(tid)
        cls = platform.class_of(proc_id)
        if not task.is_eligible(cls):
            raise SchedulingError(
                f"strict assignment places task {tid!r} on processor "
                f"{proc_id!r} (class {cls!r}) where it is ineligible"
            )
        if predecessors is None:
            predecessors = graph.predecessors(tid)
        resource_floor = max(
            (resource_free.get(r, 0.0) for r in task.resources), default=0.0
        )
        data_ready = arrival
        for pred in predecessors:
            entry = entries.get(pred)
            if entry is None:
                continue
            delay = comm_model.cost(
                entry.processor, proc_id, graph.message_size(pred, tid)
            )
            data_ready = max(data_ready, entry.finish + delay)
        start = max(data_ready, proc_free[proc_id], resource_floor)
        finish = start + task.wcet_on(cls)
        return proc_id, start, finish
