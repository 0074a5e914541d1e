"""JSON (de)serialization of task graphs.

The on-disk format is a plain dict with a ``format`` marker so future
revisions can stay backward compatible::

    {
      "format": "repro.taskgraph/1",
      "tasks": [{"id": ..., "wcet": {...}, "phasing": ..., ...}, ...],
      "edges": [{"src": ..., "dst": ..., "message_size": ...}, ...],
      "e2e_deadlines": [{"src": ..., "dst": ..., "deadline": ...}, ...]
    }

The emitted document is *canonical*: tasks, edges, WCET classes and
E-T-E pairs appear in sorted order, independent of graph construction
order.  Two structurally equal graphs therefore serialize to the same
bytes, which makes :func:`graph_digest` a content address usable as a
cache key and as result provenance.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..errors import SerializationError
from .task import Task
from .taskgraph import TaskGraph

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "canonical_graph_json",
    "graph_digest",
    "FORMAT",
]

FORMAT = "repro.taskgraph/1"


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    """Convert *graph* to a JSON-serializable dict (canonical ordering)."""
    tasks = []
    for task in sorted(graph.tasks(), key=lambda t: t.id):
        entry: dict[str, Any] = {
            "id": task.id,
            "wcet": {str(k): task.wcet[k] for k in sorted(task.wcet)},
            "phasing": task.phasing,
        }
        if task.relative_deadline is not None:
            entry["relative_deadline"] = task.relative_deadline
        if task.period is not None:
            entry["period"] = task.period
        if task.label:
            entry["label"] = task.label
        if task.resources:
            entry["resources"] = sorted(task.resources)
        tasks.append(entry)
    return {
        "format": FORMAT,
        "tasks": tasks,
        "edges": [
            {"src": s, "dst": d, "message_size": m}
            for s, d, m in sorted(graph.edges())
        ],
        "e2e_deadlines": [
            {"src": s, "dst": d, "deadline": dl}
            for (s, d), dl in sorted(graph.e2e_deadlines().items())
        ],
    }


def canonical_graph_json(graph: TaskGraph) -> str:
    """The canonical JSON text of *graph* (sorted keys, no whitespace)."""
    return json.dumps(
        graph_to_dict(graph), sort_keys=True, separators=(",", ":")
    )


def graph_digest(graph: TaskGraph) -> str:
    """SHA-256 hex digest of the canonical JSON form of *graph*.

    Structurally equal graphs share a digest regardless of the order
    tasks and edges were added, so the digest works as a
    content-address (service cache key, experiment provenance).
    """
    return hashlib.sha256(canonical_graph_json(graph).encode()).hexdigest()


def graph_from_dict(data: dict[str, Any]) -> TaskGraph:
    """Reconstruct a :class:`TaskGraph` from :func:`graph_to_dict` output.

    Raises :class:`SerializationError` for a malformed document,
    including a task id that is not a string, a ``wcet`` that is not an
    object, and ``resources`` that are not a list of strings.
    """
    if not isinstance(data, dict):
        raise SerializationError("task graph document must be a dict")
    fmt = data.get("format")
    if fmt != FORMAT:
        raise SerializationError(
            f"unsupported task graph format {fmt!r} (expected {FORMAT!r})"
        )
    graph = TaskGraph()
    try:
        for entry in data["tasks"]:
            graph.add_task(_task_from_dict(entry))
        for edge in data.get("edges", ()):
            graph.add_edge(
                edge["src"], edge["dst"], float(edge.get("message_size", 0.0))
            )
        for pair in data.get("e2e_deadlines", ()):
            graph.set_e2e_deadline(
                pair["src"], pair["dst"], float(pair["deadline"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed task graph document: {exc}") from exc
    return graph


def _task_from_dict(entry: dict[str, Any]) -> Task:
    tid = entry["id"]
    if not isinstance(tid, str):
        raise SerializationError(f"task id must be a string, got {tid!r}")
    wcet = entry["wcet"]
    if not isinstance(wcet, dict):
        raise SerializationError(
            f"task {tid!r}: 'wcet' must be an object, got {wcet!r}"
        )
    resources = entry.get("resources", ())
    if resources != () and not (
        isinstance(resources, list) and all(isinstance(r, str) for r in resources)
    ):
        raise SerializationError(
            f"task {tid!r}: 'resources' must be a list of strings, "
            f"got {resources!r}"
        )
    return Task(
        id=tid,
        wcet={k: float(v) for k, v in wcet.items()},
        phasing=float(entry.get("phasing", 0.0)),
        relative_deadline=(
            float(entry["relative_deadline"])
            if "relative_deadline" in entry
            else None
        ),
        period=float(entry["period"]) if "period" in entry else None,
        label=entry.get("label", ""),
        resources=frozenset(resources),
    )


def save_graph(graph: TaskGraph, path: str | Path) -> None:
    """Write *graph* as JSON to *path*."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: str | Path) -> TaskGraph:
    """Read a task graph from the JSON file at *path*."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return graph_from_dict(data)
