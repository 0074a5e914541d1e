"""Structural validation of task graphs against the model of §3.2/§4.1."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import CycleError, ValidationError
from .taskgraph import TaskGraph

__all__ = ["ValidationReport", "validate_graph", "check_graph"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_graph`.

    ``errors`` are violations of hard model invariants; ``warnings`` are
    conditions that are legal but usually indicate a malformed workload
    (e.g. an output task with no E-T-E deadline, which the slicing
    algorithm cannot window).
    """

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ValidationError("; ".join(self.errors))


def validate_graph(graph: TaskGraph, *, require_e2e: bool = False) -> ValidationReport:
    """Validate *graph* and return a :class:`ValidationReport`.

    Checks: acyclicity, E-T-E pairs anchored at true input/output tasks
    with reachability between endpoints, and (optionally) that every
    output task is covered by at least one E-T-E deadline.

    Cost: one topological order (which doubles as the acyclicity check)
    and one min-work DP per distinct input endpoint ``a1``, which answers
    both per-pair warnings for every pair starting at ``a1``.
    """
    report = ValidationReport()
    if graph.n_tasks == 0:
        report.errors.append("task graph is empty")
        return report
    try:
        order = graph.topological_order()
    except CycleError:
        report.errors.append("task graph contains a precedence cycle")
        return report

    inputs = set(graph.input_tasks())
    outputs = set(graph.output_tasks())
    successors = {tid: graph.successors(tid) for tid in order}
    min_wcet = {task.id: task.min_wcet() for task in graph.tasks()}
    works: dict[str, dict[str, float]] = {}

    for (a1, a2), d in graph.e2e_deadlines().items():
        if a1 not in inputs:
            report.errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a1!r} is not an input task"
            )
        if a2 not in outputs:
            report.errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a2!r} is not an output task"
            )
        work = works.get(a1)
        if work is None:
            work = works[a1] = _min_path_work(order, successors, min_wcet, a1)
        # Connectivity is whether the DP reached a2, not whether its
        # work is finite: a path whose work sum overflows still connects.
        if a2 not in work:
            report.warnings.append(
                f"E-T-E pair ({a1!r}, {a2!r}): no path connects the pair"
            )
            continue
        min_work = work[a2]
        if min_work < math.inf and d < min_work:
            report.warnings.append(
                f"E-T-E pair ({a1!r}, {a2!r}): deadline {d:g} is below the "
                f"minimum possible path execution time {min_work:g}"
            )

    if require_e2e:
        covered = {a2 for (a1, a2) in graph.e2e_deadlines()}
        for out in sorted(outputs - covered):
            report.warnings.append(
                f"output task {out!r} is not covered by any E-T-E deadline"
            )
    return report


def check_graph(graph: TaskGraph) -> None:
    """Validate *graph*, raising :class:`ValidationError` on hard errors."""
    validate_graph(graph).raise_if_invalid()


def _min_path_work(
    order: list[str],
    successors: dict[str, list[str]],
    min_wcet: dict[str, float],
    src: str,
) -> dict[str, float]:
    """Smallest sum of minimum WCETs over any ``src``→task path (DP).

    The result has an entry for exactly the tasks reachable from *src*
    (itself included), so membership is reachability.
    """
    work = {src: min_wcet[src]}
    for tid in order:
        base = work.get(tid)
        if base is None:
            continue
        for s in successors[tid]:
            cand = base + min_wcet[s]
            if s not in work or cand < work[s]:
                work[s] = cand
    return work
