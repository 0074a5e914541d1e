"""Algorithm SLICING — deadline distribution (Fig. 1, §4.4).

The algorithm repeatedly extracts a critical path from the set Π of
unassigned tasks, slices that path's end-to-end window into
non-overlapping per-task execution windows, and propagates the window
boundaries to the path's neighbours:

1. initialize Π with all tasks; pin arrivals of input tasks and
   absolute deadlines of output tasks from the application's E-T-E
   requirements;
2. while Π is non-empty:
   a. find the path Φ minimizing the critical-path metric R
      (:func:`repro.core.paths.find_critical_path`);
   b. distribute Φ's window: the first task starts at the pinned
      arrival, each subsequent task arrives exactly at its
      predecessor's absolute deadline, relative deadlines follow the
      metric's sharing rule and sum to the window;
   c. attach the remaining tasks: every unassigned immediate successor
      of a path task gets its arrival pinned to (at least) that task's
      absolute deadline, and every unassigned immediate predecessor
      gets its deadline pinned to (at most) that task's arrival;
   d. remove Φ from Π.

The produced :class:`~repro.core.assignment.DeadlineAssignment`
satisfies ``D_i <= a_j`` on every precedence arc (hence eq. 1 on every
path) whenever no window degenerates; negative-laxity windows are
clamped at zero length and flagged ``degenerate``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import DistributionError
from ..graph.algorithms import TransitiveClosure
from ..graph.taskgraph import TaskGraph
from ..graph.validation import validate_graph
from ..system.platform import Platform
from ..types import Time
from .assignment import DeadlineAssignment, TaskWindow
from .estimation import WCET_AVG, WcetEstimator, estimate_map, get_estimator
from .metrics import AdaptiveParams, CriticalPathMetric, get_metric
from .paths import find_critical_path

__all__ = ["distribute_deadlines", "slice_with_state"]


def distribute_deadlines(
    graph: TaskGraph,
    platform: Platform,
    metric: CriticalPathMetric | str = "ADAPT-L",
    *,
    estimator: WcetEstimator | str = WCET_AVG,
    params: AdaptiveParams | None = None,
    estimates: Mapping[str, Time] | None = None,
    validate: bool = True,
    closure: TransitiveClosure | None = None,
    topo_order: Sequence[str] | None = None,
    successors: Mapping[str, Sequence[str]] | None = None,
    predecessors: Mapping[str, Sequence[str]] | None = None,
    initial_pins: tuple[Mapping[str, Time], Mapping[str, Time]] | None = None,
    compiled=None,
    kernel: bool | None = None,
) -> DeadlineAssignment:
    """Distribute E-T-E deadlines over *graph* for *platform*.

    Parameters
    ----------
    graph:
        Application task graph; every output task must be covered by an
        E-T-E deadline (set per pair or via
        :meth:`TaskGraph.set_uniform_e2e_deadline`).
    platform:
        Target multiprocessor (its size ``m`` parameterizes the
        adaptive metrics).
    metric:
        Critical-path metric instance or name
        (``PURE``/``NORM``/``ADAPT-G``/``ADAPT-L``).
    estimator:
        WCET estimation strategy for ``c̄_i`` (default WCET-AVG, the
        paper's default).
    params:
        Adaptive-metric parameters (ignored when *metric* is already an
        instance).
    estimates:
        Precomputed ``c̄_i`` map, overriding *estimator* (useful for
        experiments that reuse estimates across metrics).
    validate:
        Run structural validation of the graph first.
    closure / topo_order / successors / predecessors / initial_pins:
        Optional prederived graph state (transitive closure, topological
        order, successor/predecessor adjacency, step-1 boundary pins)
        injected by callers that evaluate several metrics on the same
        workload — e.g. the paired-trial experiment engine — so it is
        computed once per workload instead of once per (metric,
        workload) pair.  All must describe *graph* exactly; results are
        identical either way.
    compiled / kernel:
        Compiled-kernel controls.  ``kernel=False`` forces the
        string-keyed reference; otherwise (``None``, the default, or
        ``True``) the integer-indexed fast path (``repro.kernel``)
        runs.  The fast path only engages for the four stock metrics
        (exact types) and is bit-identical to the reference;
        ``compiled`` optionally injects a prebuilt
        :class:`~repro.kernel.compiled.CompiledWorkload` so repeat
        callers skip recompilation.

    Returns
    -------
    DeadlineAssignment
        Windows for every task, with provenance and the selected paths.
    """
    if validate:
        validate_graph(graph).raise_if_invalid()
    metric_obj = get_metric(metric, params)
    est_obj = get_estimator(estimator)
    derived_estimates = estimates is None
    if estimates is None:
        estimates = estimate_map(graph, est_obj, platform)

    # Compiled-kernel fast path: exact stock metric types only, so any
    # subclass with a custom sharing rule always takes the reference
    # implementation below.  Bit-identical by construction (enforced by
    # the kernel property suite and the bench's paired-ref gate).
    if kernel is not False:
        from ..kernel import KERNEL_METRIC_TYPES

        if type(metric_obj) in KERNEL_METRIC_TYPES:
            from ..kernel import compile_workload, kernel_slice, kernel_weights

            cw = compiled
            if cw is None:
                cw = compile_workload(graph, platform)
            est = [estimates[tid] for tid in cw.ids]
            weights = kernel_weights(
                cw,
                metric_obj,
                est,
                est_key=est_obj.name if derived_estimates else None,
            )
            ka = kernel_slice(cw, metric_obj, weights)
            return ka.to_assignment(cw, est_obj.name)

    state = metric_obj.prepare(graph, estimates, platform, closure=closure)
    assignment = slice_with_state(
        graph,
        metric_obj,
        state,
        topo_order=topo_order,
        successors=successors,
        predecessors=predecessors,
        initial_pins=initial_pins,
    )
    assignment.estimator_name = est_obj.name
    return assignment


def slice_with_state(
    graph: TaskGraph,
    metric: CriticalPathMetric,
    state,
    *,
    topo_order: Sequence[str] | None = None,
    successors: Mapping[str, Sequence[str]] | None = None,
    predecessors: Mapping[str, Sequence[str]] | None = None,
    initial_pins: tuple[Mapping[str, Time], Mapping[str, Time]] | None = None,
) -> DeadlineAssignment:
    """Run Algorithm SLICING with a prepared metric state.

    Low-level entry point for callers that manage metric preparation
    themselves (e.g. parameter-sweep experiments).  ``topo_order``,
    ``successors``, ``predecessors``, and ``initial_pins`` optionally
    inject prederived graph state (see :func:`distribute_deadlines`).
    """
    order = topo_order if topo_order is not None else graph.topological_order()
    if successors is None:
        successors = {tid: graph.successors(tid) for tid in order}
    if predecessors is None:
        # Pin the predecessor adjacency once so the attach loop (steps
        # 5–12) does not re-derive it on every iteration.
        predecessors = {tid: graph.predecessors(tid) for tid in order}
    active = set(order)

    # Step 1: pin arrivals of input tasks and deadlines of output tasks.
    if initial_pins is not None:
        arrivals = dict(initial_pins[0])
        deadlines = dict(initial_pins[1])
    else:
        arrivals: dict[str, Time] = {
            tid: graph.task(tid).phasing for tid in graph.input_tasks()
        }
        deadlines: dict[str, Time] = {}
        for tid in graph.output_tasks():
            bound = graph.output_deadline(tid)
            if bound is None:
                raise DistributionError(
                    f"output task {tid!r} has no E-T-E deadline; the slicing "
                    "technique needs a window for every output task"
                )
            deadlines[tid] = bound

    windows: dict[str, TaskWindow] = {}
    chosen_paths: list[tuple[str, ...]] = []
    degenerate = False

    # Per-head memos shared across iterations (see find_critical_path):
    # a DP entry survives as long as its reached set stays inside Π, and
    # a best-candidate entry additionally requires the head's arrival
    # pin and every deadline pin in its reach to be unchanged.  The
    # invalidation sweeps below (attach loop and step 13) guarantee
    # both, so each iteration pays only for the heads the previous
    # path actually disturbed.
    dp_cache: dict[str, tuple] = {}
    best_cache: dict[str, object] = {}

    # Π-restricted search space, maintained incrementally as paths are
    # removed (step 13): filtering a filtered sequence by the shrunken Π
    # gives exactly what filtering the original by it would, with the
    # relative order intact, so find_critical_path sees the same inputs
    # it would derive itself.  The lists bound here are never mutated.
    order_active: list[str] = list(order)
    succ_active: dict[str, Sequence[str]] = dict(successors)

    # Steps 2–14: main loop.
    while active:
        cand = find_critical_path(
            graph,
            active,
            arrivals,
            deadlines,
            metric,
            state,
            dp_cache=dp_cache,
            best_cache=best_cache,
            order_active=order_active,
            succ_active=succ_active,
        )
        if cand is None:
            # Unreachable for valid DAG workloads: every active task lies
            # on a chain between a pinned arrival and a pinned deadline.
            raise DistributionError(
                f"no critical path found with {len(active)} task(s) "
                "remaining; the task graph violates the slicing "
                "preconditions"
            )
        chosen_paths.append(cand.path)

        # Step 4: distribute the window over the path.  Interior tasks
        # may already carry pinned arrivals/deadlines from earlier
        # iterations (step 7/10 propagation); those pins are honoured as
        # interval constraints on the slice boundaries.
        rel = metric.deadlines(cand.window, cand.path, state)
        boundaries, ok = _project_boundaries(
            cand.path, cand.arrival, cand.deadline,
            [rel[tid] for tid in cand.path],
            arrivals, deadlines,
        )
        degenerate = degenerate or not ok
        for i, tid in enumerate(cand.path):
            a_i = boundaries[i]
            d_abs = boundaries[i + 1]
            windows[tid] = TaskWindow(
                arrival=a_i,
                relative_deadline=d_abs - a_i,
                absolute_deadline=d_abs,
            )

        path_set = set(cand.path)

        # Steps 5–12: attach the remaining tasks to the new spine.  An
        # arrival pin shifts only that head's windows, so only its own
        # best-candidate memo drops; a deadline pin creates/moves a tail,
        # which invalidates the memo of every head that reaches it.
        new_deadline_pins: set[str] = set()
        for tid in cand.path:
            w = windows[tid]
            for succ in successors[tid]:
                if succ in active and succ not in path_set:
                    prev = arrivals.get(succ)
                    if prev is None or w.absolute_deadline > prev:
                        arrivals[succ] = w.absolute_deadline
                        best_cache.pop(succ, None)
            for pred in predecessors[tid]:
                if pred in active and pred not in path_set:
                    prev = deadlines.get(pred)
                    if prev is None or w.arrival < prev:
                        deadlines[pred] = w.arrival
                        new_deadline_pins.add(pred)
        if new_deadline_pins:
            for head, entry in dp_cache.items():
                if not new_deadline_pins.isdisjoint(entry[0]):
                    best_cache.pop(head, None)

        # Step 13: remove the path tasks from Π.  Drop every memoized DP
        # whose reached set (its dist keys, which include the head) lost
        # a task: only those could compute differently on the shrunken Π.
        active -= path_set
        for tid in path_set:
            arrivals.pop(tid, None)
            deadlines.pop(tid, None)
        for head in [
            h for h, entry in dp_cache.items()
            if not path_set.isdisjoint(entry[0])
        ]:
            del dp_cache[head]
            best_cache.pop(head, None)

        # Shrink the Π-restricted search space in place of a rebuild:
        # drop the removed tasks from the order and from the adjacency
        # lists of their still-active immediate predecessors.
        order_active = [t for t in order_active if t not in path_set]
        touched = set()
        for tid in path_set:
            succ_active.pop(tid, None)
            for pred in predecessors[tid]:
                if pred in active:
                    touched.add(pred)
        for pred in touched:
            succ_active[pred] = [
                s for s in succ_active[pred] if s not in path_set
            ]

    return DeadlineAssignment(
        windows=windows,
        metric_name=metric.name,
        paths=chosen_paths,
        degenerate=degenerate,
    )


def _project_boundaries(
    path: tuple[str, ...],
    start: Time,
    end: Time,
    shares: list[Time],
    arrivals: Mapping[str, Time],
    deadlines: Mapping[str, Time],
) -> tuple[list[Time], bool]:
    """Slice boundaries for *path*, honouring interior pins.

    ``boundaries[i]`` is the arrival of ``path[i]`` (and the absolute
    deadline of ``path[i-1]``); ``boundaries[0] = start`` and
    ``boundaries[k] = end``.  The metric's raw shares position the
    boundaries first; a backward pass then caps each boundary by any
    pinned deadline of the task it closes, and a forward pass raises it
    to any pinned arrival of the task it opens (and restores
    monotonicity).  Pins win over shares; shares only distribute the
    slack between pins.

    Returns ``(boundaries, ok)`` where ``ok`` is ``False`` when the
    constraints were infeasible (negative window, negative shares, or
    conflicting pins) and some window had to be clamped to zero length —
    the task set is then almost surely unschedulable, which is the
    honest outcome the success-ratio measure needs.
    """
    k = len(path)
    ok = True

    # Normalize shares: non-negative, summing exactly to the window.
    window = end - start
    clamped = [max(0.0, s) for s in shares]
    if any(s < 0.0 for s in shares):
        ok = False
    total = sum(clamped)
    if window <= 0.0:
        clamped = [0.0] * k
        ok = False
    elif total > window:
        scale = window / total if total > 0.0 else 0.0
        clamped = [s * scale for s in clamped]
        if total > window * (1.0 + 1e-12):
            ok = False
    elif total < window:
        # Metric shares always sum to the window; after clamping
        # negatives away the sum can only grow, so a deficit means the
        # shares were all zero (degenerate input). Give the slack to the
        # last task to keep the tail anchored.
        clamped[-1] += window - total

    boundaries = [start]
    acc = start
    for s in clamped:
        acc += s
        boundaries.append(acc)
    boundaries[k] = end  # guard against floating-point drift

    # Backward pass: cap by pinned deadlines (boundary i closes path[i-1]).
    for i in range(k - 1, 0, -1):
        cap = boundaries[i + 1]
        pin = deadlines.get(path[i - 1])
        if pin is not None and pin < cap:
            cap = pin
        if boundaries[i] > cap:
            boundaries[i] = cap

    # Forward pass: raise to pinned arrivals (boundary i opens path[i])
    # and restore monotonicity.  The tail boundary is included so the
    # result is always a well-formed monotone window chain (every
    # relative deadline non-negative), even when the pins conflict.
    for i in range(1, k + 1):
        floor = boundaries[i - 1]
        if i < k:
            pin = arrivals.get(path[i])
            if pin is not None and pin > floor:
                floor = pin
        if boundaries[i] < floor:
            boundaries[i] = floor

    # Feasibility audit: conflicting pins may have pushed a boundary past
    # a deadline pin or past the tail deadline; flag, don't unclamp.
    if boundaries[k] > end + 1e-9:
        ok = False
    for i in range(1, k):
        pin = deadlines.get(path[i - 1])
        if pin is not None and boundaries[i] > pin + 1e-9:
            ok = False
    return boundaries, ok
