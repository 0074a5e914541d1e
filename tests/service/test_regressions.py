"""Regression tests for service hardening fixes.

Covers four bugs in the service layer:

* ``Counter.inc`` accepted NaN/inf amounts, poisoning the cumulative
  series forever;
* ``LatencySummary.render`` snapshotted quantiles, count, and sum under
  separate lock acquisitions, so a scrape racing an ``observe()`` could
  report totals from a different window than its quantiles;
* ``DeadlineAssignmentService.assign`` skipped the latency observation
  (and the assignments counter) when the computation raised,
  breaking ``assignments_total == cache_hits + cache_misses``;
* ``_send_json`` wrote the success status line before serializing, so a
  non-finite float in a response killed the connection mid-reply after
  metrics had already counted a 200.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.service import DeadlineAssignmentService
from repro.service import server as server_module
from repro.service.api import request_from_dict
from repro.service.metrics import Counter, LatencySummary

from .conftest import chain_request
from .test_server import get, http_server, post  # noqa: F401 - fixture


class TestCounterFiniteness:
    @pytest.mark.parametrize(
        "amount", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_rejects_non_finite_and_negative(self, amount):
        counter = Counter("c_total", "test counter")
        counter.inc(2.0)
        with pytest.raises(ValueError):
            counter.inc(amount)
        # The rejected amount must not have touched the series.
        assert counter.value() == 2.0
        assert math.isfinite(counter.total())

    def test_labelled_child_also_guarded(self):
        counter = Counter("c_total", "test counter")
        with pytest.raises(ValueError):
            counter.inc(float("nan"), endpoint="assign")
        assert counter.value(endpoint="assign") == 0.0


class TestLatencySummarySnapshot:
    def test_render_count_and_sum_are_consistent_under_writes(self):
        """count/sum/quantiles must come from one atomic snapshot.

        Every observation is exactly 1.0, so any torn snapshot shows up
        as ``sum != count``; the pre-fix render (three separate lock
        acquisitions) tears under a concurrent writer.
        """
        summary = LatencySummary("s_seconds", "test summary", window=4096)
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                summary.observe(1.0)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                lines = summary.render()
                count = float(lines[-2].split()[-1])
                total = float(lines[-1].split()[-1])
                assert total == count
                if count:
                    for line in lines:
                        if "quantile=" in line:
                            assert float(line.split()[-1]) == 1.0
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)

    def test_render_empty_is_nan_quantiles_zero_totals(self):
        summary = LatencySummary("s_seconds", "test summary")
        lines = summary.render()
        assert lines[-2].endswith(" 0")
        assert lines[-1].endswith(" 0")
        for line in lines:
            if "quantile=" in line:
                assert line.split()[-1] == "NaN"


class TestAssignFailurePath:
    def test_failed_computation_observes_latency_and_counts(self):
        with DeadlineAssignmentService() as service:

            def boom(request):
                raise RuntimeError("worker pool exploded")

            service._compute = boom
            request = request_from_dict(chain_request())
            with pytest.raises(RuntimeError):
                service.assign(request)
            # Latency is observed on the failure path too...
            assert service.metrics.assign_latency.count == 1
            # ...and the assignments invariant holds: every cache miss
            # lands a bump, here as the "failed" source.
            assert service.metrics.assignments.value(source="failed") == 1.0
            assert service.metrics.cache_misses.total() == 1.0
            assert (
                service.metrics.assignments.total()
                == service.metrics.cache_hits.total()
                + service.metrics.cache_misses.total()
            )


class TestNonFiniteResponse:
    def test_nan_response_degrades_to_500_json(self, http_server, monkeypatch):
        server, base = http_server
        # The /assign reply is encoded from response_to_dict's document.
        monkeypatch.setattr(
            server_module,
            "response_to_dict",
            lambda response: {"bad": float("nan")},
        )
        status, doc = post(base, "/assign", chain_request())
        assert status == 500
        assert "non-finite" in doc["error"]
        # The connection (and server) survives: a follow-up works.
        status, body = get(base, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}
        # The failure was counted as what it was, not as a success (by
        # the front end, which counts errors and HTTP requests).
        metrics = server.metrics
        assert metrics.errors.value(kind="non_finite_json") == 1.0
        assert metrics.requests.value(endpoint="assign", status="500") == 1.0
        assert metrics.requests.value(endpoint="assign", status="200") == 0.0
