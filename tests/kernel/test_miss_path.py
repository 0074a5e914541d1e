"""What one ``distribute_deadlines`` call computes on the kernel path.

A service cache miss slices one workload once, so it must not pay for
validation warnings, the string-keyed estimate map of a stateless
estimator, or the EDF placement arrays — and the arrays EDF builds
later, on first use, must give the very schedule they gave when built
eagerly.
"""

import pytest

import repro.core.slicing as core_slicing
import repro.graph.validation as validation
import repro.kernel.compiled as compiled
from repro.core.estimation import WCET_AVG, get_estimator
from repro.core.metrics import get_metric
from repro.core.slicing import distribute_deadlines
from repro.errors import EligibilityError
from repro.experiments.context import TrialContext
from repro.graph import Task
from repro.kernel import (
    compile_workload,
    kernel_schedule_edf,
    kernel_slice,
    kernel_weights,
)
from repro.sched.edf import EdfListScheduler
from repro.workload import WorkloadParams

METRICS = ("PURE", "NORM", "ADAPT-G", "ADAPT-L")
ESTIMATORS = ("WCET-AVG", "WCET-MAX", "WCET-MIN", "WCET-AUTO")


@pytest.fixture(scope="module")
def workloads():
    return [
        TrialContext.from_seed(WorkloadParams(m=4), seed)
        for seed in (5, 17, 23)
    ]


@pytest.fixture
def counted_estimate_map(monkeypatch):
    calls = []
    estimate_map = core_slicing.estimate_map

    def counted(graph, estimator=WCET_AVG, platform=None):
        calls.append(get_estimator(estimator).name)
        return estimate_map(graph, estimator, platform)

    monkeypatch.setattr(core_slicing, "estimate_map", counted)
    return calls


def test_never_runs_the_min_work_dp(monkeypatch, workloads):
    def no_dp(*args):
        raise AssertionError("distribute_deadlines computed warnings")

    monkeypatch.setattr(validation, "_min_path_work", no_dp)
    for ctx in workloads:
        for kernel in (None, False):
            distribute_deadlines(ctx.graph, ctx.platform, kernel=kernel)


@pytest.mark.parametrize("estimator", ["WCET-AVG", "WCET-MAX", "WCET-MIN"])
def test_stateless_estimators_skip_the_estimate_map(
    counted_estimate_map, workloads, estimator
):
    for ctx in workloads:
        distribute_deadlines(ctx.graph, ctx.platform, estimator=estimator)
    assert counted_estimate_map == []


def test_graph_aware_estimator_still_builds_the_map(
    counted_estimate_map, workloads
):
    for ctx in workloads:
        distribute_deadlines(ctx.graph, ctx.platform, estimator="WCET-AUTO")
    assert counted_estimate_map == ["WCET-AUTO"] * len(workloads)


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("metric", METRICS)
def test_kernel_matches_reference(workloads, metric, estimator):
    for ctx in workloads:
        fast = distribute_deadlines(
            ctx.graph, ctx.platform, metric, estimator=estimator
        )
        ref = distribute_deadlines(
            ctx.graph, ctx.platform, metric, estimator=estimator, kernel=False
        )
        assert fast.to_dict() == ref.to_dict()


def test_ineligible_task_raises_the_reference_error(workloads):
    ctx = workloads[0]
    graph = ctx.graph.copy()
    usable = set(ctx.platform.used_class_ids())
    # The second and the last task lose every class the platform has;
    # the first of them in insertion order is the one reported.
    ids = graph.task_ids()
    for tid in (ids[1], ids[-1]):
        task = graph.task(tid)
        graph.replace_task(
            Task(id=tid, wcet={"absent-class": 1.0}, phasing=task.phasing)
        )
    assert not usable & {"absent-class"}
    messages = []
    for kernel in (None, False):
        with pytest.raises(EligibilityError) as info:
            distribute_deadlines(graph, ctx.platform, kernel=kernel)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert repr(ids[1]) in messages[0]


def test_slicing_builds_no_placement_arrays(monkeypatch, workloads):
    def no_placement(self, cw):
        raise AssertionError("a slicing-only call built placement arrays")

    monkeypatch.setattr(compiled.Placement, "__init__", no_placement)
    for ctx in workloads:
        for metric in METRICS:
            distribute_deadlines(ctx.graph, ctx.platform, metric)


@pytest.mark.parametrize("metric", METRICS)
def test_edf_after_lazy_placement_is_bit_identical(workloads, metric):
    metric_obj = get_metric(metric)
    for ctx in workloads:
        runs = []
        for eager in (True, False):
            cw = compile_workload(ctx.graph, ctx.platform)
            if eager:
                cw.placement()
            est = cw.estimates(WCET_AVG, lambda: None)
            ka = kernel_slice(cw, metric_obj, kernel_weights(cw, metric_obj, est))
            if not eager:
                assert cw._placement is None
            ks = kernel_schedule_edf(cw, ka.win_a, ka.win_d, continue_on_miss=True)
            placement = cw._placement
            assert placement is not None
            runs.append(
                (ks.feasible, ks.order, ks.start, ks.finish, ks.proc_of,
                 ks.to_schedule().to_dict())
            )
            assert cw.placement() is placement  # built once, then kept
            assignment = ka.to_assignment(cw, metric, WCET_AVG.name)
        assert runs[0] == runs[1]
        reference = EdfListScheduler(continue_on_miss=True).schedule(
            ctx.graph, ctx.platform, assignment
        )
        assert runs[1][-1] == reference.to_dict()

