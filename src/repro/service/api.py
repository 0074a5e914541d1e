"""Typed request/response surface of the deadline-assignment service.

A request carries everything one :func:`repro.core.slicing.distribute_deadlines`
call needs — task graph, platform, metric, estimator, adaptive
parameters — plus an optional admission section that asks the service
to also run the application through the stateful
:class:`repro.online.AdmissionController` of its platform.

Validation is strict: unknown keys, wrong types and out-of-range values
are rejected with the matching :mod:`repro.errors` class *before* any
computation happens, so the HTTP layer can map every client mistake to
a 400 with a precise message.

The request's :func:`request_digest` is a SHA-256 over the canonical
JSON of ``(graph, platform, metric, estimator, params)`` — the exact
inputs that determine the assignment — and is both the service's cache
key and its single-flight coalescing key: determinism in these inputs
is what makes sharing one computation across concurrent identical
requests sound.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.assignment import DeadlineAssignment
from ..core.estimation import get_estimator
from ..core.metrics import AdaptiveParams, get_metric
from ..errors import ValidationError
from ..graph.serialization import graph_from_dict, graph_to_dict
from ..graph.taskgraph import TaskGraph
from ..online.admission import AdmissionDecision
from ..system.platform import Platform, platform_from_dict, platform_to_dict

__all__ = [
    "AssignRequest",
    "AssignResponse",
    "TaskSlice",
    "request_from_dict",
    "request_digest",
    "response_to_dict",
    "response_from_assignment",
    "RESPONSE_FORMAT",
]

RESPONSE_FORMAT = "repro.assign-response/1"

_REQUEST_KEYS = frozenset(
    {
        "graph",
        "platform",
        "metric",
        "estimator",
        "params",
        "admit",
        "app_id",
        "arrival",
        "relative_deadline",
    }
)
_PARAMS_KEYS = frozenset({"k_g", "k_l", "c_thres", "c_thres_factor"})


@dataclass(frozen=True)
class AssignRequest:
    """One validated deadline-assignment request.

    ``metric`` and ``estimator`` are stored in canonical registry
    spelling (``ADAPT-L``, ``WCET-AVG``), so equal configurations hash
    equally no matter how the client spelled them.
    """

    graph: TaskGraph
    platform: Platform
    metric: str = "ADAPT-L"
    estimator: str = "WCET-AVG"
    params: AdaptiveParams | None = None
    admit: bool = False
    app_id: str | None = None
    arrival: float | None = None
    relative_deadline: float | None = None


@dataclass(frozen=True)
class TaskSlice:
    """Per-task slice of the E-T-E window (one row of the response)."""

    task_id: str
    arrival: float
    relative_deadline: float
    absolute_deadline: float


@dataclass
class AssignResponse:
    """Service answer: the slices plus provenance and cache metadata."""

    slices: list[TaskSlice]
    metric: str
    estimator: str
    degenerate: bool
    digest: str
    cached: bool = False
    admission: AdmissionDecision | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _float_field(data: Mapping[str, Any], key: str) -> float:
    value = data[key]
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"request field {key!r} must be a number, got {value!r}",
    )
    value = float(value)
    _require(math.isfinite(value), f"request field {key!r} must be finite")
    return value


def _params_from_dict(data: Any) -> AdaptiveParams:
    _require(
        isinstance(data, dict),
        f"request field 'params' must be an object, got {type(data).__name__}",
    )
    unknown = set(data) - _PARAMS_KEYS
    _require(
        not unknown,
        f"unknown params key(s) {sorted(unknown)}; "
        f"allowed: {sorted(_PARAMS_KEYS)}",
    )
    kwargs: dict[str, float] = {}
    for key in _PARAMS_KEYS:
        if key in data and data[key] is not None:
            kwargs[key] = _float_field(data, key)
    return AdaptiveParams(**kwargs)


def request_from_dict(data: Any) -> AssignRequest:
    """Parse and strictly validate one ``POST /assign`` body.

    Raises :class:`~repro.errors.ValidationError` for structural
    mistakes, :class:`~repro.errors.SerializationError` for malformed
    graph/platform documents, and the metric/estimator registries'
    errors for unknown names — all :class:`~repro.errors.ReproError`
    subclasses the server maps to HTTP 400.
    """
    _require(
        isinstance(data, dict),
        f"assign request must be a JSON object, got {type(data).__name__}",
    )
    unknown = set(data) - _REQUEST_KEYS
    _require(
        not unknown,
        f"unknown request key(s) {sorted(unknown)}; "
        f"allowed: {sorted(_REQUEST_KEYS)}",
    )
    _require("graph" in data, "request is missing the 'graph' document")
    _require("platform" in data, "request is missing the 'platform' document")
    graph = graph_from_dict(data["graph"])
    platform = platform_from_dict(data["platform"])

    metric = data.get("metric", "ADAPT-L")
    _require(
        isinstance(metric, str),
        f"request field 'metric' must be a string, got {metric!r}",
    )
    estimator = data.get("estimator", "WCET-AVG")
    _require(
        isinstance(estimator, str),
        f"request field 'estimator' must be a string, got {estimator!r}",
    )
    params = (
        _params_from_dict(data["params"]) if data.get("params") is not None
        else None
    )
    # Resolve through the registries: canonical spelling + early rejection.
    metric = get_metric(metric, params).name
    estimator = get_estimator(estimator).name

    admit = data.get("admit", False)
    _require(
        isinstance(admit, bool),
        f"request field 'admit' must be a boolean, got {admit!r}",
    )
    app_id = data.get("app_id")
    arrival = None
    relative_deadline = None
    if app_id is not None:
        _require(
            isinstance(app_id, str) and app_id != "",
            f"request field 'app_id' must be a non-empty string, got {app_id!r}",
        )
    if admit:
        _require(
            "relative_deadline" in data,
            "admission requests need a 'relative_deadline' (the E-T-E "
            "deadline measured from arrival)",
        )
        relative_deadline = _float_field(data, "relative_deadline")
        _require(
            relative_deadline > 0.0,
            f"'relative_deadline' must be positive, got {relative_deadline:g}",
        )
        if "arrival" in data and data["arrival"] is not None:
            arrival = _float_field(data, "arrival")
            _require(
                arrival >= 0.0, f"'arrival' must be >= 0, got {arrival:g}"
            )
    else:
        for key in ("app_id", "arrival", "relative_deadline"):
            _require(
                data.get(key) is None,
                f"request field {key!r} is only meaningful with 'admit': true",
            )
    return AssignRequest(
        graph=graph,
        platform=platform,
        metric=metric,
        estimator=estimator,
        params=params,
        admit=admit,
        app_id=app_id,
        arrival=arrival,
        relative_deadline=relative_deadline,
    )


def _canonical_platform_doc(platform: Platform) -> dict[str, Any]:
    doc = platform_to_dict(platform)
    doc["classes"] = sorted(doc["classes"], key=lambda c: c["id"])
    doc["processors"] = sorted(doc["processors"], key=lambda p: p["id"])
    return doc


def request_digest(request: AssignRequest) -> str:
    """Content address of the assignment-determining inputs.

    Covers graph, platform, metric, estimator and adaptive parameters —
    everything :func:`~repro.core.slicing.distribute_deadlines` reads —
    and deliberately excludes the admission section, which is stateful
    and never cached.
    """
    params = request.params or AdaptiveParams()
    doc = {
        "graph": graph_to_dict(request.graph),
        "platform": _canonical_platform_doc(request.platform),
        "metric": request.metric,
        "estimator": request.estimator,
        "params": {
            "k_g": params.k_g,
            "k_l": params.k_l,
            "c_thres": params.c_thres,
            "c_thres_factor": params.c_thres_factor,
        },
    }
    # *doc* is built fresh here, so it cannot be cyclic.
    text = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), check_circular=False
    )
    return hashlib.sha256(text.encode()).hexdigest()


def response_from_assignment(
    assignment: DeadlineAssignment,
    digest: str,
    *,
    cached: bool = False,
    admission: AdmissionDecision | None = None,
) -> AssignResponse:
    """Build the wire response for one computed (or cached) assignment."""
    slices = [
        TaskSlice(
            task_id=tid,
            arrival=w.arrival,
            relative_deadline=w.relative_deadline,
            absolute_deadline=w.absolute_deadline,
        )
        for tid, w in sorted(assignment.windows.items())
    ]
    return AssignResponse(
        slices=slices,
        metric=assignment.metric_name,
        estimator=assignment.estimator_name,
        degenerate=assignment.degenerate,
        digest=digest,
        cached=cached,
        admission=admission,
    )


def response_to_dict(response: AssignResponse) -> dict[str, Any]:
    """JSON-serializable response document (NaN-free by construction)."""
    doc: dict[str, Any] = {
        "format": RESPONSE_FORMAT,
        "digest": response.digest,
        "cached": response.cached,
        "metric": response.metric,
        "estimator": response.estimator,
        "degenerate": response.degenerate,
        "slices": [
            {
                "task": s.task_id,
                "arrival": s.arrival,
                "relative_deadline": s.relative_deadline,
                "absolute_deadline": s.absolute_deadline,
            }
            for s in response.slices
        ],
    }
    if response.admission is not None:
        decision = response.admission
        entry: dict[str, Any] = {
            "admitted": decision.admitted,
            "app_id": decision.app_id,
            "arrival": decision.arrival,
            "reason": decision.reason,
        }
        if math.isfinite(decision.response_time):
            entry["response_time"] = decision.response_time
        doc["admission"] = entry
    return doc
