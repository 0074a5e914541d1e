"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "ValidationError",
    "PlatformError",
    "EligibilityError",
    "DistributionError",
    "MetricError",
    "SchedulingError",
    "InfeasibleError",
    "WorkloadError",
    "ExperimentError",
    "SerializationError",
    "ServiceOverloadError",
    "StoreError",
    "FabricError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A task-graph structural operation failed."""


class CycleError(GraphError):
    """The task graph contains a precedence cycle (it must be a DAG)."""


class ValidationError(ReproError):
    """A model object failed validation against its invariants."""


class PlatformError(ReproError):
    """A platform/architecture model operation failed."""


class EligibilityError(PlatformError):
    """A task has no eligible processor class on the given platform."""


class DistributionError(ReproError):
    """The deadline-distribution (slicing) algorithm failed."""


class MetricError(ReproError):
    """A critical-path metric was configured or evaluated incorrectly."""


class SchedulingError(ReproError):
    """The scheduler was invoked on inconsistent inputs."""


class InfeasibleError(SchedulingError):
    """No feasible schedule exists for the given assignment.

    Raised only by APIs documented to raise on infeasibility; the
    standard scheduling entry points return a result object with
    ``feasible=False`` instead.
    """


class WorkloadError(ReproError):
    """The random workload generator received inconsistent parameters."""


class ExperimentError(ReproError):
    """An experiment specification or run failed."""


class SerializationError(ReproError):
    """(De)serialization of a model object failed."""


class ServiceOverloadError(ReproError):
    """The service's work bound rejected a submission.

    Raised by :class:`repro.service.DeadlineAssignmentService` when
    ``max_queue`` computations are already running, and by
    :class:`repro.service.WorkerPool` when every worker has
    ``max_queue`` requests in flight; surfaced by the HTTP layer as
    ``429 Too Many Requests`` with a ``Retry-After`` header — the
    backpressure contract: shed load at the door instead of building an
    unbounded backlog.
    """


class StoreError(ReproError):
    """The persistent result store is malformed or was misused."""


class FabricError(ReproError):
    """The distributed sweep fabric (queue, lease, transport) failed."""
