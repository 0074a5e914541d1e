"""The kernel EDF loop's ready-queue key and pinned processors.

``kernel_schedule_edf(key=..., fixed=...)`` must reproduce the
reference list schedulers that order their ready queue by another key
(:class:`StaticLevelScheduler`, :class:`FifoScheduler`,
:class:`LaxityScheduler`) or pin every task's processor
(:class:`FixedAssignmentEdfScheduler`) — placement for placement, on
the shared and the contention bus, failing fast or running past misses.
Each scheduler is run twice on the same windows: through its reference
loop (no ``compiled``) and through the kernel loop (``compiled``), and
the kernel function is also driven directly with the reference
priorities.  The tie-heavy workloads (WCETs of 1–3 units) make equal
keys common, so the id tie-break is exercised.
"""

import pytest

from repro.assign import (
    FixedAssignmentEdfScheduler,
    TaskAssignment,
    cluster_assignment,
)
from repro.core.slicing import distribute_deadlines
from repro.errors import SchedulingError
from repro.experiments.context import TrialContext
from repro.kernel import kernel_schedule_edf
from repro.sched import FifoScheduler, LaxityScheduler, StaticLevelScheduler
from repro.system.interconnect import ContentionBus
from repro.workload import WorkloadParams

KEYED = (StaticLevelScheduler, FifoScheduler, LaxityScheduler)
RANDOM = [
    WorkloadParams(m=2 + ws % 4, olr=(0.5, 0.8, 1.2)[ws % 3], ccr=0.5)
    for ws in range(4)
]
TIE_HEAVY = [
    WorkloadParams(
        m=2 + ws % 3,
        c_mean=2.0,
        etd=0.5,
        n_tasks_range=(10, 24),
        depth_range=(3, 6),
        olr=(0.6, 1.0)[ws % 2],
        ccr=0.5,
    )
    for ws in range(4)
]
SEEDS = range(6)


def contexts(families):
    for params in families:
        for seed in SEEDS:
            yield TrialContext.from_seed(params, 500 + seed)


def buses(ctx):
    return {
        "shared": lambda: None,
        "contention": lambda: ContentionBus(
            ctx.workload.params.bus_delay_per_item
        ),
    }


def outcome(schedule_fn):
    """A comparable record of a schedule, or of the error it raised."""
    try:
        s = schedule_fn()
    except SchedulingError as exc:
        return ("raised", str(exc))
    return (
        s.scheduler_name,
        s.feasible,
        s.failed_task,
        s.failure_reason,
        [
            (e.task_id, e.processor, e.start, e.finish, e.arrival,
             e.absolute_deadline)
            for e in s.entries.values()
        ],
    )


@pytest.mark.parametrize("family", ["random", "tie-heavy"])
@pytest.mark.parametrize("cls", KEYED, ids=lambda c: c.name)
def test_keyed_schedulers_match_their_reference_loop(family, cls):
    families = RANDOM if family == "random" else TIE_HEAVY
    for ctx in contexts(families):
        assignment = distribute_deadlines(
            ctx.graph, ctx.platform, "ADAPT-L", kernel=False
        )
        for lateness in (False, True):
            sched = cls(continue_on_miss=lateness)
            for bus, comm in buses(ctx).items():
                ref = outcome(
                    lambda: sched.schedule(
                        ctx.graph, ctx.platform, assignment, comm=comm()
                    )
                )
                fast = outcome(
                    lambda: sched.schedule(
                        ctx.graph,
                        ctx.platform,
                        assignment,
                        comm=comm(),
                        compiled=ctx.compiled,
                    )
                )
                assert fast == ref, (cls.name, bus, lateness)

                # The kernel function itself, keyed by the reference
                # priorities, places the same tasks.
                keys = sched.priorities(ctx.graph, assignment)
                cw = ctx.compiled
                ks = kernel_schedule_edf(
                    cw,
                    [assignment.arrival(t) for t in cw.ids],
                    [assignment.absolute_deadline(t) for t in cw.ids],
                    comm=comm(),
                    continue_on_miss=lateness,
                    key=[keys[t] for t in cw.ids],
                )
                assert outcome(lambda: ks.to_schedule(cls.name)) == ref


@pytest.mark.parametrize("family", ["random", "tie-heavy"])
def test_fixed_assignment_matches_its_reference_loop(family):
    families = RANDOM if family == "random" else TIE_HEAVY
    for ctx in contexts(families):
        fixed = cluster_assignment(ctx.graph, ctx.platform)
        assignment = distribute_deadlines(
            ctx.graph, ctx.platform, "PURE", kernel=False
        )
        for lateness in (False, True):
            sched = FixedAssignmentEdfScheduler(
                fixed, continue_on_miss=lateness
            )
            for bus, comm in buses(ctx).items():
                ref = outcome(
                    lambda: sched.schedule(
                        ctx.graph, ctx.platform, assignment, comm=comm()
                    )
                )
                fast = outcome(
                    lambda: sched.schedule(
                        ctx.graph,
                        ctx.platform,
                        assignment,
                        comm=comm(),
                        compiled=ctx.compiled,
                    )
                )
                assert fast == ref, (bus, lateness)


def test_ineligible_fixed_processor_raises_the_reference_error():
    params = WorkloadParams(
        m=3,
        n_classes_range=(3, 3),
        ineligibility_prob=0.4,
        n_tasks_range=(10, 16),
        depth_range=(3, 5),
    )
    raised = 0
    for seed in range(12):
        ctx = TrialContext.from_seed(params, 900 + seed)
        graph, platform = ctx.graph, ctx.platform
        mapping = dict(cluster_assignment(graph, platform).mapping)
        # Pin one task to a processor whose class it cannot run on.
        for tid in graph.topological_order():
            bad = [
                p.id for p in platform.processors()
                if not graph.task(tid).is_eligible(p.cls)
            ]
            if bad:
                mapping[tid] = bad[0]
                break
        else:
            continue
        fixed = TaskAssignment(mapping, n_clusters=0, zeroed_traffic=0.0)
        assignment = distribute_deadlines(graph, platform, "PURE", kernel=False)
        for lateness in (False, True):
            sched = FixedAssignmentEdfScheduler(
                fixed, continue_on_miss=lateness
            )
            ref = outcome(lambda: sched.schedule(graph, platform, assignment))
            fast = outcome(
                lambda: sched.schedule(
                    graph, platform, assignment, compiled=ctx.compiled
                )
            )
            assert fast == ref
            raised += ref[0] == "raised"
    assert raised > 0  # the ineligible task was reached in some runs


def test_unassigned_task_takes_the_reference_loop():
    ctx = TrialContext.from_seed(WorkloadParams(), 3)
    mapping = dict(cluster_assignment(ctx.graph, ctx.platform).mapping)
    mapping.pop(next(iter(mapping)))
    sched = FixedAssignmentEdfScheduler(
        TaskAssignment(mapping, n_clusters=0, zeroed_traffic=0.0)
    )
    assignment = distribute_deadlines(ctx.graph, ctx.platform, "PURE")
    with pytest.raises(Exception, match="unassigned") as ref:
        sched.schedule(ctx.graph, ctx.platform, assignment)
    with pytest.raises(type(ref.value), match="unassigned"):
        sched.schedule(
            ctx.graph, ctx.platform, assignment, compiled=ctx.compiled
        )
