"""Task model (§3.2 of the paper).

A task :math:`\\tau_i` is characterized by the static 4-tuple
``(c_i, phi_i, d_i, T_i)``:

* ``c_i`` — the worst-case execution time (WCET), an *array* of upper
  bounds indexed by processor class (heterogeneous platforms, §3.1).
  A class missing from the mapping means the task is ineligible to run
  on processors of that class (the paper's "inappropriate for execution
  on a particular processor class", §5.2).
* ``phi_i`` — the phasing: earliest time of the first invocation.
* ``d_i`` — the relative deadline.  For the deadline-distribution
  problem this is an *output* of the slicing algorithm, so tasks are
  usually created without one; it is carried here for applications with
  pre-assigned local deadlines and for the periodic machinery.
* ``T_i`` — the period (``None`` for aperiodic / single-shot tasks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ValidationError
from ..types import ProcessorClassId, Time

__all__ = ["Task"]


@dataclass(frozen=True)
class Task:
    """An application task with per-processor-class WCETs.

    Instances are immutable; derived timing attributes produced by the
    slicing algorithm (arrival time, relative/absolute deadline) live in
    :class:`repro.core.assignment.DeadlineAssignment`, never on the task.

    Parameters
    ----------
    id:
        Unique identifier within its task graph.
    wcet:
        Mapping from processor-class id to worst-case execution time on
        that class.  Must be non-empty; every value must be positive
        and finite.
    phasing:
        Earliest time of the first invocation (default ``0``).
    relative_deadline:
        Optional pre-assigned relative deadline.
    period:
        Optional period ``T_i``.  When given, ``relative_deadline`` (if
        also given) must satisfy ``d_i <= T_i`` (§3.3).
    """

    id: str
    wcet: Mapping[ProcessorClassId, Time]
    phasing: Time = 0.0
    relative_deadline: Time | None = None
    period: Time | None = None
    label: str = ""
    resources: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("task id must be a non-empty string")
        if not self.wcet:
            raise ValidationError(
                f"task {self.id!r}: wcet mapping must name at least one "
                "eligible processor class"
            )
        for cls, c in self.wcet.items():
            if not (0.0 < c < math.inf):
                raise ValidationError(
                    f"task {self.id!r}: WCET on class {cls!r} must be "
                    f"positive and finite, got {c!r}"
                )
        if not (0.0 <= self.phasing < math.inf):
            raise ValidationError(
                f"task {self.id!r}: phasing must be non-negative and finite"
            )
        if self.relative_deadline is not None and not (
            0.0 < self.relative_deadline < math.inf
        ):
            raise ValidationError(
                f"task {self.id!r}: relative deadline must be positive "
                "and finite"
            )
        if self.period is not None:
            if not (0.0 < self.period < math.inf):
                raise ValidationError(
                    f"task {self.id!r}: period must be positive and finite"
                )
            if (
                self.relative_deadline is not None
                and self.relative_deadline > self.period
            ):
                raise ValidationError(
                    f"task {self.id!r}: constrained-deadline model requires "
                    f"d_i <= T_i (got d={self.relative_deadline}, "
                    f"T={self.period})"
                )
        # Freeze the mapping so the frozen dataclass is deeply immutable.
        object.__setattr__(self, "wcet", dict(self.wcet))

    # ------------------------------------------------------------------
    # WCET queries
    # ------------------------------------------------------------------
    def eligible_classes(self) -> frozenset[ProcessorClassId]:
        """Processor classes this task may execute on."""
        return frozenset(self.wcet)

    def is_eligible(self, cls: ProcessorClassId) -> bool:
        """Whether the task may execute on processors of class *cls*."""
        return cls in self.wcet

    def wcet_on(self, cls: ProcessorClassId) -> Time:
        """WCET on class *cls*; raises ``KeyError`` if ineligible."""
        return self.wcet[cls]

    def min_wcet(self) -> Time:
        """Smallest WCET over all eligible classes (WCET-MIN, eq. 11)."""
        return min(self.wcet.values())

    def max_wcet(self) -> Time:
        """Largest WCET over all eligible classes (WCET-MAX, eq. 10)."""
        return max(self.wcet.values())

    def mean_wcet(self) -> Time:
        """Average WCET over all eligible classes (WCET-AVG, eq. 9)."""
        return sum(self.wcet.values()) / len(self.wcet)

    # ------------------------------------------------------------------
    # Periodic behaviour (§3.2)
    # ------------------------------------------------------------------
    def is_periodic(self) -> bool:
        """Whether the task has a finite period."""
        return self.period is not None

    def arrival_of(self, invocation: int) -> Time:
        """Absolute arrival time of the *invocation*-th instance (1-based).

        ``a_i^k = phi_i + T_i (k - 1)`` for periodic tasks; aperiodic
        tasks only have invocation 1.
        """
        if invocation < 1:
            raise ValidationError("invocation indices are 1-based")
        if self.period is None:
            if invocation != 1:
                raise ValidationError(
                    f"aperiodic task {self.id!r} only has invocation 1"
                )
            return self.phasing
        return self.phasing + self.period * (invocation - 1)

    def absolute_deadline_of(self, invocation: int) -> Time:
        """Absolute deadline ``D_i^k = a_i^k + d_i`` of an invocation."""
        if self.relative_deadline is None:
            raise ValidationError(
                f"task {self.id!r} has no relative deadline assigned"
            )
        return self.arrival_of(invocation) + self.relative_deadline

    def with_deadline(self, relative_deadline: Time) -> "Task":
        """Return a copy with ``relative_deadline`` replaced."""
        return Task(
            id=self.id,
            wcet=self.wcet,
            phasing=self.phasing,
            relative_deadline=relative_deadline,
            period=self.period,
            label=self.label,
            resources=self.resources,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wc = ", ".join(f"{k}={v:g}" for k, v in sorted(self.wcet.items()))
        return f"Task({self.id!r}, wcet={{{wc}}})"
