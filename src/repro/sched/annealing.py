"""Simulated-annealing schedule improvement (cf. [15], §7.3).

Di Natale & Stankovic [15] applied simulated annealing to real-time
scheduling and jitter control; the paper lists exploring the metrics
under such alternative policies as future work.  This module provides
a deterministic (seeded) annealer over *dispatch priority orders*:

* a state is a priority map over tasks; the schedule it induces is
  produced by the same greedy list-scheduling placement as the EDF
  baseline (so every visited schedule is structurally valid);
* the energy of a state is the induced schedule's total tardiness
  (sum of positive lateness), with the miss count as a tie-breaker;
* neighbours swap the priorities of two random tasks;
* cooling is geometric; the best state ever visited wins.

Starting from the EDF priorities, the annealer can repair deadline
misses the one-shot greedy commitment causes, at polynomially bounded
extra cost (`iterations` full list-scheduling passes).
"""

from __future__ import annotations

import math

from ..core.assignment import DeadlineAssignment
from ..errors import SchedulingError
from ..graph.taskgraph import TaskGraph
from ..system.interconnect import CommunicationModel
from ..system.platform import Platform
from .edf import EdfListScheduler
from .listsched import _PriorityProxy
from .schedule import Schedule

__all__ = ["SimulatedAnnealingScheduler", "schedule_annealed"]


def _energy(schedule: Schedule) -> tuple[float, int]:
    """(total tardiness, miss count) — lexicographically minimized."""
    tardiness = 0.0
    misses = 0
    for entry in schedule:
        late = entry.lateness
        if late > 1e-9:
            tardiness += late
            misses += 1
    return tardiness, misses


class SimulatedAnnealingScheduler:
    """Anneal the dispatch order of the non-preemptive list scheduler.

    Parameters
    ----------
    iterations:
        Neighbour evaluations (each is one full list-scheduling pass).
    seed:
        RNG seed; results are deterministic given the seed.
    initial_temperature / cooling:
        Geometric cooling schedule for the Metropolis criterion, in
        units of tardiness.
    """

    name = "SA-LIST"

    def __init__(
        self,
        iterations: int = 400,
        seed: int = 0,
        initial_temperature: float = 50.0,
        cooling: float = 0.99,
    ) -> None:
        if iterations < 0:
            raise SchedulingError("iterations must be non-negative")
        if not (0.0 < cooling <= 1.0):
            raise SchedulingError("cooling factor must be in (0, 1]")
        if initial_temperature <= 0.0:
            raise SchedulingError("initial temperature must be positive")
        self.iterations = iterations
        self.seed = seed
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def schedule(
        self,
        graph: TaskGraph,
        platform: Platform,
        assignment: DeadlineAssignment,
        *,
        comm: CommunicationModel | None = None,
    ) -> Schedule:
        """Return the best schedule found (feasible iff tardiness 0)."""
        from ..rng import make_rng  # NumPy loads only when annealing runs

        rng = make_rng(self.seed)
        lister = EdfListScheduler(continue_on_miss=True)
        task_ids = graph.task_ids()
        if not task_ids:
            raise SchedulingError("cannot schedule an empty task graph")

        def evaluate(priorities: dict[str, float]) -> Schedule:
            proxy = _PriorityProxy(assignment, priorities)
            sched = lister.schedule(graph, platform, proxy, comm=comm)
            sched.scheduler_name = self.name
            return sched

        # Start from the EDF baseline order.
        current_prio = {
            tid: assignment.absolute_deadline(tid) for tid in task_ids
        }
        current = evaluate(current_prio)
        current_e = _energy(current)
        best, best_e = current, current_e

        temperature = self.initial_temperature
        n = len(task_ids)
        for _ in range(self.iterations):
            if best_e[0] <= 0.0:
                break  # already feasible: nothing to repair
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            a, b = task_ids[int(i)], task_ids[int(j)]
            cand_prio = dict(current_prio)
            cand_prio[a], cand_prio[b] = cand_prio[b], cand_prio[a]
            cand = evaluate(cand_prio)
            cand_e = _energy(cand)

            delta = cand_e[0] - current_e[0]
            accept = delta <= 0.0 or (
                temperature > 1e-12
                and rng.random() < math.exp(-delta / temperature)
            )
            if accept:
                current_prio, current, current_e = cand_prio, cand, cand_e
                if cand_e < best_e:
                    best, best_e = cand, cand_e
            temperature *= self.cooling

        # Normalize the verdict: the proxy evaluation ran with
        # continue_on_miss, so recompute feasibility from lateness.
        best.feasible = best_e[0] <= 0.0
        if not best.feasible and best.failed_task is None:
            missed = best.missed_tasks()
            best.failed_task = missed[0] if missed else None
            best.failure_reason = (
                f"{len(missed)} task(s) remain tardy after annealing"
            )
        return best


def schedule_annealed(
    graph: TaskGraph,
    platform: Platform,
    assignment: DeadlineAssignment,
    *,
    iterations: int = 400,
    seed: int = 0,
    comm: CommunicationModel | None = None,
) -> Schedule:
    """Convenience wrapper around :class:`SimulatedAnnealingScheduler`."""
    return SimulatedAnnealingScheduler(
        iterations=iterations, seed=seed
    ).schedule(graph, platform, assignment, comm=comm)
