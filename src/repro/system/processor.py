"""Processor and processor-class models (§3.1).

Processors are *heterogeneous*: each belongs to a processor class
``e(p_q)`` that determines its hardware configuration, so a task's WCET
is a vector indexed by class.  The classical machine models fall out as
special cases (Graham et al. [16]):

* **identical** — a single class;
* **uniform** — per-class WCET equals a base time scaled by the class's
  speed factor;
* **unrelated** — arbitrary per-class WCET vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ValidationError
from ..types import ProcessorClassId, ProcessorId

__all__ = ["ProcessorClass", "Processor"]


@dataclass(frozen=True)
class ProcessorClass:
    """A hardware configuration (speed, pipeline, memory hierarchy).

    ``speed_factor`` is a convenience for the *uniform* machine model: a
    task with base execution time ``c`` runs in ``c / speed_factor`` on
    this class.  For the *unrelated* model the factor is informational
    only — WCETs are stored per class on each task.
    """

    id: ProcessorClassId
    speed_factor: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("processor class id must be non-empty")
        if not (0.0 < self.speed_factor < math.inf):
            raise ValidationError(
                f"processor class {self.id!r}: speed factor must be "
                "positive and finite"
            )

    def scaled_time(self, base_time: float) -> float:
        """Execution time of a ``base_time`` workload on this class."""
        return base_time / self.speed_factor


@dataclass(frozen=True)
class Processor:
    """A schedulable processor ``p_q`` with its class ``e(p_q)``."""

    id: ProcessorId
    cls: ProcessorClassId

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("processor id must be non-empty")
        if not self.cls:
            raise ValidationError(
                f"processor {self.id!r}: class id must be non-empty"
            )
