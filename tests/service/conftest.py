"""Shared fixtures for the online-service tests."""

from __future__ import annotations

import contextlib
import http.client
import json

import pytest

from repro.graph import chain_graph, graph_to_dict
from repro.service import InProcessBackend, PooledFrontend
from repro.system import identical_platform
from repro.system.platform import platform_to_dict


def scrape(host: str, port: int) -> dict[str, float]:
    """``GET /metrics`` as a series-name → value map."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        text = response.read().decode()
    finally:
        conn.close()
    series = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


@contextlib.contextmanager
def serve_in_process(service=None, *, fabric=None, retry_after=1):
    """The front end over an in-process backend on a free loopback port.

    *service* defaults to a fresh ``DeadlineAssignmentService``;
    *fabric*, a sweep coordinator, mounts its ``/fabric/*`` endpoint
    over the front end's metrics, as ``repro sweep --serve`` does.
    Yields the started front end and drains it on exit.
    """
    frontend = PooledFrontend(
        InProcessBackend(service), retry_after=retry_after
    )
    if fabric is not None:
        frontend.fabric = fabric.endpoint(metrics=frontend.metrics)
    frontend.start()
    try:
        yield frontend
    finally:
        frontend.close(timeout=5.0)


def chain_request(
    wcets=(10, 20, 15), deadline=90.0, m=2, **extra
) -> dict:
    """A minimal valid ``POST /assign`` body over a chain graph."""
    graph = chain_graph(list(wcets))
    graph.set_uniform_e2e_deadline(deadline)
    doc = {
        "graph": graph_to_dict(graph),
        "platform": platform_to_dict(identical_platform(m)),
    }
    doc.update(extra)
    return doc


#: Where each numeric model field sits in a ``chain_request`` body.
NON_FINITE_FIELDS = {
    "wcet": lambda doc, v: doc["graph"]["tasks"][1]["wcet"].update(default=v),
    "phasing": lambda doc, v: doc["graph"]["tasks"][0].update(phasing=v),
    "relative_deadline": lambda doc, v: doc["graph"]["tasks"][1].update(
        relative_deadline=v
    ),
    "period": lambda doc, v: doc["graph"]["tasks"][1].update(period=v),
    "message_size": lambda doc, v: doc["graph"]["edges"][0].update(
        message_size=v
    ),
    "e2e_deadline": lambda doc, v: doc["graph"]["e2e_deadlines"][0].update(
        deadline=v
    ),
    "speed_factor": lambda doc, v: doc["platform"]["classes"][0].update(
        speed_factor=v
    ),
    "per_item_delay": lambda doc, v: doc["platform"]["comm"].update(
        per_item_delay=v
    ),
}


def non_finite_request(field: str, value: float) -> dict:
    """A ``chain_request`` body with *value* in *field*, decoded from the
    ``NaN`` / ``Infinity`` tokens ``json.loads`` accepts on the wire."""
    doc = chain_request()
    NON_FINITE_FIELDS[field](doc, value)
    return json.loads(json.dumps(doc))


@pytest.fixture
def request_doc() -> dict:
    return chain_request()
