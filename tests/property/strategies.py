"""Hypothesis strategies for random DAG workloads.

The generator builds small layered DAGs directly (not via the §5.2
workload generator) so the property tests explore structural corners —
singleton levels, heavy fan-in, isolated tasks — that the calibrated
generator avoids.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph import Task, TaskGraph

__all__ = ["task_graphs", "dag_with_deadline"]


@st.composite
def task_graphs(
    draw,
    max_levels: int = 5,
    max_width: int = 4,
    max_wcet: float = 30.0,
    n_classes: int = 2,
    min_wcet: float = 1.0,
) -> TaskGraph:
    """A random layered DAG with per-class WCETs and message sizes."""
    n_levels = draw(st.integers(1, max_levels))
    widths = [draw(st.integers(1, max_width)) for _ in range(n_levels)]
    graph = TaskGraph()
    ids_by_level: list[list[str]] = []
    counter = 0
    # Every task is eligible on "default" (so `identical_platform`
    # always works); extra classes are optional per task.
    extra_classes = [f"e{k}" for k in range(1, n_classes)]
    for width in widths:
        ids_by_level.append([])
        for _ in range(width):
            tid = f"n{counter}"
            counter += 1
            eligible = ["default"]
            if extra_classes:
                eligible += draw(
                    st.lists(
                        st.sampled_from(extra_classes),
                        max_size=len(extra_classes),
                        unique=True,
                    )
                )
            wcet = {
                cls: draw(
                    st.floats(
                        min_wcet,
                        max_wcet,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                )
                for cls in eligible
            }
            graph.add_task(Task(id=tid, wcet=wcet))
            ids_by_level[-1].append(tid)
    # Wire each non-top task to a subset of earlier tasks (at least one
    # from the previous level so the level structure is meaningful).
    for level in range(1, n_levels):
        earlier = [t for lvl in ids_by_level[:level] for t in lvl]
        for tid in ids_by_level[level]:
            prev = draw(st.sampled_from(ids_by_level[level - 1]))
            preds = {prev}
            extra = draw(
                st.lists(st.sampled_from(earlier), max_size=2, unique=True)
            )
            preds.update(extra)
            for p in preds:
                size = draw(st.sampled_from([0.0, 1.0, 3.0]))
                graph.add_edge(p, tid, size)
    return graph


@st.composite
def dag_with_deadline(draw, looseness_min: float = 0.3) -> TaskGraph:
    """A random DAG with a uniform E-T-E deadline attached."""
    graph = draw(task_graphs())
    # Budget the looseness against the volume the slicer will actually
    # estimate: on the identical platforms these tests use, WCET-AVG
    # reduces to the "default"-class WCET, which can exceed mean_wcet()
    # when a task carries a cheap extra class.
    total = sum(t.wcet["default"] for t in graph.tasks())
    factor = draw(
        st.floats(looseness_min, 3.0, allow_nan=False, allow_infinity=False)
    )
    graph.set_uniform_e2e_deadline(max(factor * total, 1.0))
    return graph
