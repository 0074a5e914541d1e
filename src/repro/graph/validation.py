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

    Errors are exactly those :func:`check_graph` raises.  Warnings flag
    E-T-E pairs no path connects or whose deadline is below the
    minimum possible path work, and (with *require_e2e*) output tasks
    no E-T-E deadline covers.  This is the one function that computes
    warnings.

    Cost: the error pass (one topological order, which doubles as the
    acyclicity check) plus one min-work DP per distinct input endpoint
    ``a1``, which answers both per-pair warnings for every pair starting
    at ``a1``.
    """
    errors, order = _errors(graph)
    report = ValidationReport(errors=errors)
    if order is None:
        return report

    successors = {tid: graph.successors(tid) for tid in order}
    min_wcet = {task.id: task.min_wcet() for task in graph.tasks()}
    works: dict[str, dict[str, float]] = {}
    for (a1, a2), d in graph.e2e_deadlines().items():
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
        for out in sorted(set(graph.output_tasks()) - covered):
            report.warnings.append(
                f"output task {out!r} is not covered by any E-T-E deadline"
            )
    return report


def check_graph(graph: TaskGraph) -> None:
    """Raise :class:`ValidationError` if *graph* breaks a hard invariant.

    Checks errors only — the warnings of :func:`validate_graph` are not
    computed — at the cost of one topological order.
    """
    ValidationReport(errors=_errors(graph)[0]).raise_if_invalid()


def _errors(graph: TaskGraph) -> tuple[list[str], list[str] | None]:
    """The hard errors of *graph*, and its topological order if acyclic.

    An empty or cyclic graph stops at that one error (order ``None``);
    otherwise every E-T-E pair whose source is not an input task or
    whose sink is not an output task adds an error, in pair order.
    """
    if graph.n_tasks == 0:
        return ["task graph is empty"], None
    try:
        order = graph.topological_order()
    except CycleError:
        return ["task graph contains a precedence cycle"], None
    inputs = set(graph.input_tasks())
    outputs = set(graph.output_tasks())
    errors: list[str] = []
    for a1, a2 in graph.e2e_deadlines():
        if a1 not in inputs:
            errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a1!r} is not an input task"
            )
        if a2 not in outputs:
            errors.append(
                f"E-T-E pair ({a1!r}, {a2!r}): {a2!r} is not an output task"
            )
    return errors, order


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
