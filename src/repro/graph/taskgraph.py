"""Task-graph model (§3.2).

The application is a directed acyclic graph ``G = (N, A)`` whose nodes
are tasks and whose arcs are precedence constraints, each optionally
annotated with a message size (number of data items sent from the
predecessor to the successor).

End-to-end (E-T-E) timing requirements are attached to the graph as
deadlines on input–output task pairs (§4.1): the pair ``(a1, a2)`` with
deadline ``D`` requires every path between ``a1`` and ``a2`` to complete
within ``D`` of the arrival time of ``a1``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from ..errors import CycleError, GraphError, ValidationError
from ..types import Time
from .task import Task

__all__ = ["TaskGraph"]


class TaskGraph:
    """A mutable DAG of :class:`~repro.graph.task.Task` objects.

    The graph keeps, per arc, the message size ``m_{i,j}`` (data items);
    a size of ``0`` models a pure precedence constraint with no data
    transfer.  End-to-end deadlines are stored per (input, output) pair.
    """

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        self._e2e: dict[tuple[str, str], Time] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Insert *task*; its id must be unused."""
        if task.id in self._tasks:
            raise GraphError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task
        self._succ[task.id] = {}
        self._pred[task.id] = {}
        return task

    def replace_task(self, task: Task) -> Task:
        """Replace an existing task, keeping its arcs."""
        if task.id not in self._tasks:
            raise GraphError(f"unknown task id {task.id!r}")
        self._tasks[task.id] = task
        return task

    def add_edge(self, src: str, dst: str, message_size: float = 0.0) -> None:
        """Add the precedence arc ``src -> dst`` carrying *message_size* items."""
        if src not in self._tasks:
            raise GraphError(f"unknown task id {src!r}")
        if dst not in self._tasks:
            raise GraphError(f"unknown task id {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        if not (0.0 <= message_size < math.inf):
            raise GraphError("message size must be non-negative and finite")
        self._succ[src][dst] = float(message_size)
        self._pred[dst][src] = float(message_size)

    def set_e2e_deadline(self, src: str, dst: str, deadline: Time) -> None:
        """Attach the E-T-E deadline ``D`` to the input–output pair."""
        if src not in self._tasks or dst not in self._tasks:
            raise GraphError("E-T-E deadline endpoints must be graph tasks")
        if not (0.0 < deadline < math.inf):
            raise ValidationError("E-T-E deadline must be positive and finite")
        self._e2e[(src, dst)] = float(deadline)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``n = |N|``."""
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        """Number of precedence arcs ``|A|``."""
        return sum(len(s) for s in self._succ.values())

    def task(self, task_id: str) -> Task:
        """Look up a task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise GraphError(f"unknown task id {task_id!r}") from None

    def tasks(self) -> Iterator[Task]:
        """Iterate over all tasks (insertion order)."""
        return iter(self._tasks.values())

    def task_ids(self) -> list[str]:
        """All task ids (insertion order)."""
        return list(self._tasks)

    def successors(self, task_id: str) -> list[str]:
        """Immediate successors of a task."""
        self.task(task_id)
        return list(self._succ[task_id])

    def predecessors(self, task_id: str) -> list[str]:
        """Immediate predecessors of a task."""
        self.task(task_id)
        return list(self._pred[task_id])

    def out_degree(self, task_id: str) -> int:
        self.task(task_id)
        return len(self._succ[task_id])

    def in_degree(self, task_id: str) -> int:
        self.task(task_id)
        return len(self._pred[task_id])

    def has_edge(self, src: str, dst: str) -> bool:
        return src in self._succ and dst in self._succ[src]

    def message_size(self, src: str, dst: str) -> float:
        """Message size ``m_{i,j}`` on an arc."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None

    def set_message_size(self, src: str, dst: str, message_size: float) -> None:
        """Replace the message size ``m_{i,j}`` on an existing arc."""
        if not self.has_edge(src, dst):
            raise GraphError(f"no edge {src!r} -> {dst!r}")
        if not (0.0 <= message_size < math.inf):
            raise GraphError("message size must be non-negative and finite")
        self._succ[src][dst] = float(message_size)
        self._pred[dst][src] = float(message_size)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Iterate ``(src, dst, message_size)`` over all arcs."""
        for src, out in self._succ.items():
            for dst, size in out.items():
                yield src, dst, size

    def input_tasks(self) -> list[str]:
        """Tasks with no predecessors (§3.2 "input task")."""
        return [t for t in self._tasks if not self._pred[t]]

    def output_tasks(self) -> list[str]:
        """Tasks with no successors (§3.2 "output task")."""
        return [t for t in self._tasks if not self._succ[t]]

    # ------------------------------------------------------------------
    # End-to-end deadlines
    # ------------------------------------------------------------------
    def e2e_deadlines(self) -> Mapping[tuple[str, str], Time]:
        """All (input, output) pair deadlines."""
        return dict(self._e2e)

    def e2e_deadline(self, src: str, dst: str) -> Time:
        try:
            return self._e2e[(src, dst)]
        except KeyError:
            raise GraphError(f"no E-T-E deadline for pair ({src!r}, {dst!r})") from None

    def output_deadline(self, task_id: str) -> Time | None:
        """Absolute deadline bound on an output task.

        The tightest bound implied by the E-T-E pair deadlines ending at
        *task_id*: ``min over pairs (a1, task_id) of (arrival(a1) + D)``.
        Returns ``None`` when no pair constrains the task.
        """
        bounds = [
            self._tasks[a1].phasing + d
            for (a1, a2), d in self._e2e.items()
            if a2 == task_id
        ]
        return min(bounds) if bounds else None

    def set_uniform_e2e_deadline(self, deadline: Time) -> None:
        """Constrain every input–output pair by the same E-T-E deadline.

        This matches the experimental setup of §5.2 where one deadline,
        derived from the overall laxity ratio, governs the whole graph.
        """
        for src in self.input_tasks():
            for dst in self.output_tasks():
                self.set_e2e_deadline(src, dst, deadline)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn topological order; raises :class:`CycleError` on cycles."""
        indeg = {t: len(self._pred[t]) for t in self._tasks}
        ready = [t for t, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            t = ready.pop()
            order.append(t)
            for s in self._succ[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._tasks):
            cyclic = sorted(t for t, d in indeg.items() if d > 0)
            raise CycleError(
                f"task graph contains a precedence cycle through {cyclic}"
            )
        return order

    def is_acyclic(self) -> bool:
        """Whether the graph is a DAG."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def subgraph(self, task_ids: Iterable[str]) -> "TaskGraph":
        """Induced subgraph over *task_ids* (E-T-E pairs kept if both ends present)."""
        keep = set(task_ids)
        g = TaskGraph()
        for tid in self._tasks:
            if tid in keep:
                g.add_task(self._tasks[tid])
        for src, dst, size in self.edges():
            if src in keep and dst in keep:
                g.add_edge(src, dst, size)
        for (a1, a2), d in self._e2e.items():
            if a1 in keep and a2 in keep:
                g.set_e2e_deadline(a1, a2, d)
        return g

    def copy(self) -> "TaskGraph":
        """Shallow structural copy (tasks are immutable and shared)."""
        return self.subgraph(self._tasks)

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (message sizes as ``weight``)."""
        import networkx as nx

        g = nx.DiGraph()
        for tid, task in self._tasks.items():
            g.add_node(tid, task=task)
        for src, dst, size in self.edges():
            g.add_edge(src, dst, weight=size)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(n_tasks={self.n_tasks}, n_edges={self.n_edges}, "
            f"e2e_pairs={len(self._e2e)})"
        )
