"""Kernel-vs-reference bit-identity over randomized workloads.

The contract under test: for every configuration inside the kernel's
envelope, ``run_trial(use_kernel=True)`` equals
``run_trial(use_kernel=False)`` field for field — including NaN
placement, degenerate flags, and the failed task of an infeasible
schedule.  The sweep covers > 200 randomized workloads across graph
shapes, processor counts, estimators, all four metrics, and both
deadline-miss modes.
"""

import math

import pytest

from repro.core.metrics import METRIC_NAMES
from repro.core.slicing import distribute_deadlines
from repro.experiments import TrialConfig
from repro.experiments.context import TrialContext
from repro.experiments.runner import run_trial
from repro.workload import WorkloadParams

#: Graph/platform shape variations, cycled over the workload index.
SHAPES = (
    {},  # the paper's defaults: 40-60 tasks, depth 8-12
    {"n_tasks_range": (8, 16), "depth_range": (3, 6)},
    {"n_tasks_range": (20, 30), "depth_range": (5, 9), "fan_range": (1, 2)},
    {"etd": 1.0, "olr": 0.5},
    {"ccr": 1.0, "olr": 1.2},
    {"olr": 0.3},  # tight deadlines: misses and degenerate slices
    {"level_skew": 1.0, "ccr": 0.0},
    {
        "deadline_mode": "pair-surplus",
        "n_tasks_range": (10, 18),
        "depth_range": (3, 6),
    },
)
ESTIMATORS = ("AVG", "MAX", "MIN")
OUTCOME_FIELDS = (
    "success",
    "degenerate",
    "n_tasks",
    "min_laxity",
    "makespan",
    "max_lateness",
    "failed_task",
)
N_WORKLOADS = 208


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def _chunks():
    """Workload indices in pytest-sized chunks (clearer failure units)."""
    step = 26
    return [range(lo, lo + step) for lo in range(0, N_WORKLOADS, step)]


@pytest.mark.parametrize("indices", _chunks(), ids=lambda r: f"ws{r.start}")
def test_trial_outcomes_bit_identical(indices):
    for ws in indices:
        shape = SHAPES[ws % len(SHAPES)]
        params = WorkloadParams(m=2 + ws % 5, **shape)
        context = TrialContext.from_seed(params, 7000 + ws)
        estimator = ESTIMATORS[ws % len(ESTIMATORS)]
        for metric in METRIC_NAMES:
            for lateness in (False, True):
                config = TrialConfig(
                    workload=params,
                    metric=metric,
                    estimator=estimator,
                    measure_lateness=lateness,
                )
                ref = run_trial(config, 7000 + ws, context, use_kernel=False)
                fast = run_trial(config, 7000 + ws, context, use_kernel=True)
                for name in OUTCOME_FIELDS:
                    assert _same(getattr(ref, name), getattr(fast, name)), (
                        f"workload {ws} (m={params.m}, shape={shape}), "
                        f"{metric}/{estimator}, lateness={lateness}: "
                        f"{name} {getattr(ref, name)!r} != "
                        f"{getattr(fast, name)!r}"
                    )


def test_assignments_bit_identical_including_insertion_order():
    """The materialized DeadlineAssignment equals the reference's —
    window floats, path tuples, degenerate flag, and even the window
    dict's insertion order."""
    for ws in range(24):
        params = WorkloadParams(m=2 + ws % 5)
        context = TrialContext.from_seed(params, 9000 + ws)
        for metric in METRIC_NAMES:
            ref = distribute_deadlines(
                context.graph, context.platform, metric, kernel=False
            )
            fast = distribute_deadlines(
                context.graph, context.platform, metric, kernel=True
            )
            assert list(ref.windows) == list(fast.windows)
            for tid, w in ref.windows.items():
                fw = fast.windows[tid]
                assert w.arrival == fw.arrival
                assert w.relative_deadline == fw.relative_deadline
                assert w.absolute_deadline == fw.absolute_deadline
            assert ref.paths == fast.paths
            assert ref.degenerate == fast.degenerate
            assert ref.metric_name == fast.metric_name
            assert ref.estimator_name == fast.estimator_name
