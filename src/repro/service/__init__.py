"""Online deadline-assignment service (the serving layer).

Turns the library into a request/response system: clients POST a task
graph + platform + metric choice and receive the per-task
arrival/deadline slices that :func:`repro.core.slicing.distribute_deadlines`
would compute offline, optionally together with a stateful admission
verdict from :class:`repro.online.AdmissionController`.

Composition of one request:

``request_from_dict`` (strict validation) → ``request_digest``
(canonical SHA-256 content address; a repeated raw body skips both
through the body memo of ``DeadlineAssignmentService.assign_body``) →
:class:`AssignmentCache` (LRU; repeated workloads skip the slicing hot
path) → single-flight
coalescing (concurrent identical misses share one computation) →
``distribute_deadlines`` on the calling thread (``max_queue`` bounds the
computations running at once — overflow is shed as
:class:`~repro.errors.ServiceOverloadError` / HTTP 429) →
``response_to_dict``.  :class:`ServiceMetrics` counts every step and
renders Prometheus text for ``GET /metrics``.

Run it with ``python -m repro serve`` or embed
:class:`DeadlineAssignmentService` directly.

Every topology serves through one asyncio front end
(:class:`PooledFrontend`) that owns HTTP, body-digest single-flight,
429 backpressure, the graceful drain and the merged ``/metrics``
exposition (:func:`aggregate_metrics`).  ``--workers 1`` puts one
service in this process behind it (:class:`InProcessBackend`: kept
body-memo hits answered on the event loop, everything else on four
request threads); ``--workers N`` pre-forks N worker processes
(:class:`WorkerPool`) — the horizontal-scale path for multi-core
hosts.
"""

from .api import (
    AssignRequest,
    AssignResponse,
    TaskSlice,
    request_digest,
    request_from_dict,
    response_from_assignment,
    response_to_dict,
)
from ..errors import ServiceOverloadError
from .cache import AssignmentCache, CacheStats, StoreSpill
from .agg import aggregate_metrics
from .frontend import PooledFrontend
from .metrics import Counter, LatencySummary, ServiceMetrics, render_prometheus
from .pool import RemoteAssignError, WorkerPool, default_workers
from .server import DeadlineAssignmentService, InProcessBackend

__all__ = [
    "AssignRequest",
    "AssignResponse",
    "TaskSlice",
    "request_from_dict",
    "request_digest",
    "response_from_assignment",
    "response_to_dict",
    "AssignmentCache",
    "CacheStats",
    "StoreSpill",
    "ServiceOverloadError",
    "Counter",
    "LatencySummary",
    "ServiceMetrics",
    "render_prometheus",
    "DeadlineAssignmentService",
    "InProcessBackend",
    "WorkerPool",
    "PooledFrontend",
    "RemoteAssignError",
    "aggregate_metrics",
    "default_workers",
]
