"""repro — reproduction of Jonsson's adaptive deadline-assignment paper.

A full implementation of the slicing technique for distributing
end-to-end deadlines over precedence-constrained tasks in heterogeneous
distributed hard real-time systems, with the four critical-path metrics
(PURE, NORM, ADAPT-G, ADAPT-L), the WCET estimation strategies, the
baseline non-preemptive EDF list scheduler, the random workload
generator and the full experiment harness of:

    Jan Jonsson, "A Robust Adaptive Metric for Deadline Assignment in
    Heterogeneous Distributed Real-Time Systems", IPPS 1999.

Quick start::

    from repro import (
        GraphBuilder, identical_platform, distribute_deadlines, schedule_edf,
    )

    graph = (GraphBuilder()
             .task("a", 10).task("b", 20).task("c", 15)
             .edge("a", "b").edge("b", "c")
             .e2e("a", "c", 90)
             .build())
    platform = identical_platform(2)
    assignment = distribute_deadlines(graph, platform, metric="ADAPT-L")
    schedule = schedule_edf(graph, platform, assignment)
    assert schedule.feasible

The names below load on first use (PEP 562), so a process that needs
one subpackage — ``repro serve`` needs neither the workload generator
nor NumPy — imports only that one.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    ".errors": ("ReproError",),
    ".graph": (
        "Task",
        "TaskGraph",
        "GraphBuilder",
        "chain_graph",
        "fork_join_graph",
        "diamond_graph",
    ),
    ".system": (
        "Platform",
        "Processor",
        "ProcessorClass",
        "SharedBus",
        "ContentionBus",
        "identical_platform",
    ),
    ".core": (
        "distribute_deadlines",
        "DeadlineAssignment",
        "TaskWindow",
        "AdaptiveParams",
        "PureMetric",
        "NormMetric",
        "AdaptGMetric",
        "AdaptLMetric",
        "get_metric",
        "METRIC_NAMES",
        "WCET_AVG",
        "WCET_MAX",
        "WCET_MIN",
        "get_estimator",
        "estimate_map",
    ),
    ".sched": (
        "EdfListScheduler",
        "schedule_edf",
        "Schedule",
        "validate_schedule",
        "render_gantt",
    ),
    ".workload": ("WorkloadParams", "generate_workload", "paper_defaults"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value
