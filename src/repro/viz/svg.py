"""Dependency-free SVG rendering of schedules and task graphs.

Produces standalone SVG documents (plain strings) so results can be
inspected in any browser without matplotlib/graphviz:

* :func:`gantt_svg` — one lane per processor, one rounded box per task,
  with its execution window drawn underneath and deadline misses
  highlighted;
* :func:`graph_svg` — the task graph in layered (level-per-row) layout
  with straight arcs.

Colors follow a small fixed palette keyed by a CRC-32 of the task id,
so the same task id renders the same color across charts, runs and
processes (Python's own ``hash`` of a string is salted per process).
"""

from __future__ import annotations

import zlib
from xml.sax.saxutils import escape

from ..core.assignment import DeadlineAssignment
from ..graph.algorithms import level_assignment
from ..graph.taskgraph import TaskGraph
from ..sched.schedule import Schedule
from ..system.platform import Platform

__all__ = ["gantt_svg", "graph_svg"]

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f", "#e15759",
)
_MISS = "#d62728"
_WINDOW = "#d0d7de"


def _color(task_id: str) -> str:
    return _PALETTE[zlib.crc32(task_id.encode()) % len(_PALETTE)]


def _doc(width: float, height: float, body: list[str]) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}" '
        f'font-family="sans-serif" font-size="11">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def gantt_svg(
    schedule: Schedule,
    platform: Platform | None = None,
    assignment: DeadlineAssignment | None = None,
    *,
    width: float = 900.0,
    lane_height: float = 34.0,
) -> str:
    """Render *schedule* as an SVG Gantt chart.

    When *assignment* is given, each task's execution window is drawn
    as a pale underlay so slack and misses are visible at a glance.
    """
    procs = (
        [p.id for p in platform.processors()]
        if platform is not None
        else sorted({e.processor for e in schedule})
    )
    span = max(schedule.makespan, 1e-9)
    if assignment is not None and len(assignment):
        span = max(
            span,
            max(w.absolute_deadline for w in assignment.windows.values()),
        )
    left, top = 70.0, 26.0
    chart_w = width - left - 16.0
    scale = chart_w / span
    height = top + lane_height * max(1, len(procs)) + 30.0

    body: list[str] = [
        f'<text x="{left}" y="14" fill="#555">0</text>',
        f'<text x="{width - 16:.0f}" y="14" text-anchor="end" '
        f'fill="#555">{span:g}</text>',
    ]
    for i, proc in enumerate(procs):
        y = top + i * lane_height
        body.append(
            f'<line x1="{left}" y1="{y + lane_height - 4:.1f}" '
            f'x2="{width - 16:.0f}" y2="{y + lane_height - 4:.1f}" '
            f'stroke="#eee"/>'
        )
        body.append(
            f'<text x="8" y="{y + lane_height / 2 + 4:.1f}" '
            f'fill="#333">{escape(proc)}</text>'
        )
        for entry in schedule.tasks_on(proc):
            x = left + entry.start * scale
            w = max(1.0, (entry.finish - entry.start) * scale)
            if assignment is not None and entry.task_id in assignment:
                win = assignment.window(entry.task_id)
                wx = left + win.arrival * scale
                ww = max(1.0, win.length * scale)
                body.append(
                    f'<rect x="{wx:.1f}" y="{y + lane_height - 10:.1f}" '
                    f'width="{ww:.1f}" height="5" fill="{_WINDOW}"/>'
                )
            fill = _MISS if not entry.meets_deadline else _color(entry.task_id)
            body.append(
                f'<rect x="{x:.1f}" y="{y + 3:.1f}" width="{w:.1f}" '
                f'height="{lane_height - 16:.1f}" rx="3" fill="{fill}">'
                f"<title>{escape(entry.task_id)}: "
                f"[{entry.start:g}, {entry.finish:g}] "
                f"D={entry.absolute_deadline:g}</title></rect>"
            )
            if w > 26:
                body.append(
                    f'<text x="{x + 4:.1f}" y="{y + lane_height / 2:.1f}" '
                    f'fill="#fff">{escape(entry.task_id)}</text>'
                )
    status = "feasible" if schedule.feasible else "INFEASIBLE"
    body.append(
        f'<text x="{left}" y="{height - 8:.1f}" fill="#555">'
        f"makespan {schedule.makespan:g} — {status}</text>"
    )
    return _doc(width, height, body)


def graph_svg(
    graph: TaskGraph,
    *,
    node_width: float = 72.0,
    node_height: float = 30.0,
    h_gap: float = 26.0,
    v_gap: float = 52.0,
) -> str:
    """Render *graph* in layered layout (one row per precedence level)."""
    levels = level_assignment(graph)
    rows: dict[int, list[str]] = {}
    for tid in graph.topological_order():
        rows.setdefault(levels[tid], []).append(tid)
    n_rows = len(rows)
    widest = max((len(v) for v in rows.values()), default=1)

    width = 32.0 + widest * (node_width + h_gap)
    height = 32.0 + n_rows * (node_height + v_gap)

    pos: dict[str, tuple[float, float]] = {}
    for level, tids in rows.items():
        row_w = len(tids) * (node_width + h_gap) - h_gap
        x0 = (width - row_w) / 2.0
        y = 16.0 + level * (node_height + v_gap)
        for i, tid in enumerate(tids):
            pos[tid] = (x0 + i * (node_width + h_gap), y)

    body: list[str] = [
        '<defs><marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
        'markerWidth="6" markerHeight="6" orient="auto">'
        '<path d="M0,0 L8,4 L0,8 z" fill="#888"/></marker></defs>'
    ]
    for src, dst, size in graph.edges():
        (x1, y1), (x2, y2) = pos[src], pos[dst]
        body.append(
            f'<line x1="{x1 + node_width / 2:.1f}" '
            f'y1="{y1 + node_height:.1f}" '
            f'x2="{x2 + node_width / 2:.1f}" y2="{y2:.1f}" '
            f'stroke="#888" marker-end="url(#arrow)">'
            f"<title>{escape(src)} → {escape(dst)} "
            f"({size:g} items)</title></line>"
        )
    for tid, (x, y) in pos.items():
        task = graph.task(tid)
        body.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{node_width}" '
            f'height="{node_height}" rx="5" fill="{_color(tid)}">'
            f"<title>{escape(tid)} c̄={task.mean_wcet():g}</title></rect>"
        )
        body.append(
            f'<text x="{x + node_width / 2:.1f}" '
            f'y="{y + node_height / 2 + 4:.1f}" text-anchor="middle" '
            f'fill="#fff">{escape(tid)}</text>'
        )
    return _doc(width, height, body)
