"""Random task-graph generator (§5.2).

Graphs are generated level by level:

1. draw the task count ``n`` and depth ``L`` from their ranges;
2. place one task per level, then scatter the remaining ``n − L`` tasks
   uniformly over levels;
3. connect every task below the top level to 1–3 predecessors — at
   least one from the immediately previous level (which makes the level
   structure, and hence the graph depth, exact) — preferring
   predecessors whose out-degree is still below the fan-out bound;
4. draw per-class integer WCETs uniformly from
   ``[c_mean(1−ETD), c_mean(1+ETD)]``, mark each (task, class) pair
   ineligible with probability 5% (keeping at least one class), and
   attach message sizes targeting a mean communication cost of
   ``CCR × c_mean``;
5. derive the E-T-E deadline from the overall laxity ratio,
   ``D = OLR × Σ_i c̄_i`` with ``c̄_i`` the per-task mean over eligible
   classes, and apply it to every input–output pair.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..graph.task import Task
from ..graph.taskgraph import TaskGraph
from ..system.platform import Platform
from ..types import ProcessorClassId
from .params import WorkloadParams
from .platformgen import generate_platform

__all__ = ["generate_task_graph", "generate_workload", "Workload"]


class Workload:
    """A generated (task graph, platform) pair with its parameters."""

    def __init__(
        self, graph: TaskGraph, platform: Platform, params: WorkloadParams
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workload(n_tasks={self.graph.n_tasks}, m={self.platform.m}, "
            f"m_e={self.platform.m_e})"
        )


def generate_workload(
    params: WorkloadParams, rng: np.random.Generator
) -> Workload:
    """Generate a platform and a matching task graph (one trial's input)."""
    platform = generate_platform(params, rng)
    classes = [str(c) for c in platform.used_class_ids()]
    graph = generate_task_graph(params, rng, classes)
    return Workload(graph, platform, params)


def generate_task_graph(
    params: WorkloadParams,
    rng: np.random.Generator,
    classes: list[str],
) -> TaskGraph:
    """Generate one random task graph for the given processor classes."""
    if not classes:
        raise WorkloadError("at least one processor class is required")

    n = int(rng.integers(params.n_tasks_range[0], params.n_tasks_range[1] + 1))
    depth = int(rng.integers(params.depth_range[0], params.depth_range[1] + 1))
    depth = min(depth, n)

    levels = _assign_levels(n, depth, rng, params.level_skew)
    graph = TaskGraph()
    ids_by_level: list[list[str]] = []
    counter = 0
    draw_time = _time_drawer(params, rng)
    for level_size in levels:
        ids_by_level.append([])
        for _ in range(level_size):
            tid = f"t{counter:03d}"
            counter += 1
            graph.add_task(
                Task(id=tid, wcet=_draw_wcets(params, rng, classes, draw_time))
            )
            ids_by_level[-1].append(tid)

    _connect_levels(graph, ids_by_level, params, rng)
    _attach_messages(graph, params, rng)
    _attach_e2e_deadlines(graph, params)
    return graph


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _assign_levels(
    n: int, depth: int, rng: np.random.Generator, skew: float
) -> list[int]:
    """Sizes of each level: one task per level plus a skewed scatter.

    Each surplus task lands in level ``floor(u^skew × depth)`` for
    ``u ~ U[0,1)``, and level positions are shuffled afterwards.  With
    ``skew = 1`` the scatter is uniform; larger values concentrate
    surplus tasks in fewer levels, yielding the bursty
    wide-level/narrow-level structure whose parallelism spikes drive
    the contention the adaptive metrics exist to absorb (DESIGN.md,
    calibration notes).
    """
    sizes = [1] * depth
    # One batched draw yields the same uniforms, and leaves the stream
    # in the same place, as n − depth scalar ``rng.random()`` calls;
    # the power and scaling stay Python float arithmetic per element.
    for u in rng.random(n - depth).tolist():
        idx = int((u ** skew) * depth)
        sizes[min(idx, depth - 1)] += 1
    rng.shuffle(sizes)
    return sizes


def _draw_wcets(
    params: WorkloadParams,
    rng: np.random.Generator,
    classes: list[str],
    draw_time,
) -> dict[ProcessorClassId, float]:
    """Per-class WCET vector with the 5% ineligibility mechanism."""
    wcet: dict[ProcessorClassId, float] = {}
    random = rng.random
    ineligibility_prob = params.ineligibility_prob
    for cls in classes:
        if random() < ineligibility_prob:
            continue  # task deemed inappropriate for this class (§5.2)
        wcet[ProcessorClassId(cls)] = draw_time()
    if not wcet:
        # Guarantee schedulability in principle: restore a random class.
        cls = classes[int(rng.integers(0, len(classes)))]
        wcet[ProcessorClassId(cls)] = draw_time()
    return wcet


def _time_drawer(params: WorkloadParams, rng: np.random.Generator):
    """A zero-argument execution-time sampler with the bounds hoisted.

    The bound arithmetic (ceil/floor epsilon guards) depends only on
    the parameters, so it runs once per generated graph instead of once
    per drawn time; the random draws themselves are unchanged.
    """
    lo, hi = params.wcet_bounds
    if params.integer_times:
        # Integer time units (§3.1); execution times stay >= 1 even at
        # ETD = 100%, where the real interval's lower edge touches zero.
        ilo = max(1, int(np.ceil(lo - 1e-9)))
        ihi = max(ilo, int(np.floor(hi + 1e-9)))
        hi_exclusive = ihi + 1
        integers = rng.integers

        def draw_time() -> float:
            return float(integers(ilo, hi_exclusive))

        return draw_time

    flo = max(lo, np.finfo(float).tiny)
    uniform = rng.uniform

    def draw_time() -> float:
        return float(uniform(flo, hi))

    return draw_time


def _connect_levels(
    graph: TaskGraph,
    ids_by_level: list[list[str]],
    params: WorkloadParams,
    rng: np.random.Generator,
) -> None:
    """Wire each non-input task to 1–3 predecessors (§5.2).

    Every pick is uniform over the candidates whose out-degree is still
    below the fan-out cap, or over all candidates when none is.  The
    first comes from the previous level, the rest from any earlier
    level.  Out-degrees change only between tasks, so the open
    candidates are kept as one list in level order instead of being
    re-filtered for every pick; the draws, and so the workloads, are
    those of filtering afresh for every pick.
    """
    fan_lo, fan_hi = params.fan_range
    integers = rng.integers
    out_degree: dict[str, int] = dict.fromkeys(graph._tasks, 0)
    # Edges go straight into the adjacency dicts (both ends exist, and
    # no pair repeats), as `graph.add_edge` would insert them.
    succ_d, pred_d = graph._succ, graph._pred

    # `earlier` accumulates the levels already passed; `open_earlier`
    # is its subsequence still below the cap, whose last `n_open_prev`
    # entries are the previous level's.
    earlier: list[str] = []
    open_earlier: list[str] = []
    for level in range(1, len(ids_by_level)):
        prev = ids_by_level[level - 1]
        prev_set = set(prev)
        earlier.extend(prev)
        opened = [t for t in prev if out_degree[t] < fan_hi]
        open_earlier.extend(opened)
        n_open_prev = len(opened)
        for tid in ids_by_level[level]:
            k = int(integers(fan_lo, fan_hi + 1))
            # First predecessor comes from the previous level so the
            # level structure (and the 8–12 level depth) is exact.
            if n_open_prev:
                first = open_earlier[
                    len(open_earlier) - n_open_prev
                    + int(integers(0, n_open_prev))
                ]
            else:
                first = prev[int(integers(0, len(prev)))]
            chosen = [first]
            if k > 1:
                # Remaining predecessors may come from any earlier level.
                open_pool = open_earlier.copy()
                if out_degree[first] < fan_hi:
                    open_pool.remove(first)
                left = len(earlier) - 1
                while len(chosen) < k and left:
                    if open_pool:
                        pick = open_pool.pop(int(integers(0, len(open_pool))))
                    else:
                        pool = [t for t in earlier if t not in chosen]
                        pick = pool[int(integers(0, len(pool)))]
                    chosen.append(pick)
                    left -= 1
            for pred in sorted(chosen):
                succ_d[pred][tid] = 0.0
                pred_d[tid][pred] = 0.0
                degree = out_degree[pred] + 1
                out_degree[pred] = degree
                if degree == fan_hi:
                    open_earlier.remove(pred)
                    if pred in prev_set:
                        n_open_prev -= 1


def _attach_e2e_deadlines(graph: TaskGraph, params: WorkloadParams) -> None:
    """Derive the E-T-E deadlines from the OLR (§5.2).

    ``deadline_mode = "workload"`` (default, the paper's definition):
    one uniform deadline ``D = OLR × Σ_i c̄_i`` — the overall laxity
    ratio of the deadline to the average accumulated task-graph
    workload — applied to every input–output pair.

    ``deadline_mode = "pair-surplus"``: per-pair

        ``D = SL(a1, a2) + OLR × (W(a1, a2) − SL(a1, a2))``

    where ``W`` is the accumulated workload between the pair (the sum
    of average-over-classes execution times of every task on some a1→a2
    path, endpoints included) and ``SL`` the workload of the longest
    such path.  ``OLR`` is then the fraction of the pair's parallel
    surplus granted as laxity beyond its critical chain: ``OLR → 0``
    pins the deadline at the estimated critical path, ``OLR = 1``
    allows fully serial execution between the pair.  This mode holds
    every pair — shallow or deep — equally tight, which makes it a much
    harsher regime than the paper's; it is provided for robustness
    studies.  Unconnected pairs impose no constraint.
    """
    if params.deadline_mode == "workload":
        total = sum(t.mean_wcet() for t in graph.tasks())
        graph.set_uniform_e2e_deadline(params.olr * total)
        return

    from ..graph.algorithms import TransitiveClosure

    closure = TransitiveClosure(graph)
    mean_wcet = {t.id: t.mean_wcet() for t in graph.tasks()}
    order = graph.topological_order()
    for a1 in graph.input_tasks():
        descendants = closure.descendants(a1)
        # Longest-chain workload from a1 to every descendant (one DP).
        chain: dict[str, float] = {a1: mean_wcet[a1]}
        for tid in order:
            base = chain.get(tid)
            if base is None:
                continue
            for succ in graph.successors(tid):
                cand = base + mean_wcet[succ]
                if cand > chain.get(succ, float("-inf")):
                    chain[succ] = cand
        for a2 in graph.output_tasks():
            if a1 == a2:
                # An isolated task's window is exactly its own workload.
                graph.set_e2e_deadline(a1, a2, mean_wcet[a1])
                continue
            if not closure.reachable(a1, a2):
                continue
            between = descendants & (closure.ancestors(a2) | {a2})
            # Summed in topological order: a set of task-id strings
            # iterates in per-process hash order, and float addition
            # is not associative.
            work = mean_wcet[a1] + sum(
                mean_wcet[t] for t in order if t in between
            )
            sl = chain[a2]
            graph.set_e2e_deadline(a1, a2, sl + params.olr * (work - sl))


def _attach_messages(
    graph: TaskGraph, params: WorkloadParams, rng: np.random.Generator
) -> None:
    """Draw integer message sizes targeting a mean cost of CCR × c_mean.

    With the paper's one-time-unit-per-item bus, a uniform integer size
    in ``{1, .., 2·CCR·c_mean − 1}`` has the target mean (2 items for
    CCR = 0.1, c_mean = 20).  A CCR of zero produces empty messages.
    """
    max_size = int(round(2.0 * params.mean_message_cost)) - 1
    # Value-only rewrites on existing keys are iteration-safe; writing
    # the raw adjacency dicts skips the per-edge has_edge revalidation
    # of set_message_size (the edges exist by construction).
    succ_d, pred_d = graph._succ, graph._pred
    if max_size < 1:
        for src, out in succ_d.items():
            for dst in out:
                out[dst] = 0.0
                pred_d[dst][src] = 0.0
        return
    # One batched draw of every edge's size, in edge order: the same
    # values (and the same stream position) as one scalar
    # ``rng.integers`` call per edge.
    n_edges = sum(len(out) for out in succ_d.values())
    sizes = iter(rng.integers(1, max_size + 1, size=n_edges).tolist())
    for src, out in succ_d.items():
        for dst in out:
            size = float(next(sizes))
            out[dst] = size
            pred_d[dst][src] = size
