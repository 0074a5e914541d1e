"""Concurrency-layer tests: single-flight, sharded admission, backpressure.

These pin the service's parallel-load contracts:

* N concurrent identical misses run exactly ONE computation (the
  others coalesce onto the in-flight future);
* admissions serialize per platform digest only — a stalled controller
  never blocks another platform's admissions;
* generated admission app-ids never collide with caller-supplied ones,
  and the sequence advances only when the service generates;
* a miss computes on the calling thread; the service starts no thread;
* ``max_queue`` bounds running computations and sheds the next distinct
  miss as HTTP 429 + ``Retry-After``; hits and followers are never shed;
* ``close()`` refuses new computations and waits for running ones; the
  front end's bounded drain answers a straggler 500 and leaves it on a
  daemon thread;
* an HTTP/1.1 404 on a keep-alive connection drains the request body,
  so the next pipelined request still parses (desync regression).
"""

import http.client
import json
import threading
import time

import pytest

from repro.errors import ServiceOverloadError, ValidationError
from repro.service import (
    DeadlineAssignmentService,
    InProcessBackend,
    PooledFrontend,
)
from repro.service.server import assign_error
from repro.system import identical_platform

from .conftest import chain_request, serve_in_process


class GatedService(DeadlineAssignmentService):
    """Service whose computation counts calls and blocks on a gate."""

    def __init__(self, **kwargs) -> None:
        self.compute_calls: list = []
        self.compute_started = threading.Event()
        self.gate = threading.Event()
        super().__init__(**kwargs)

    def _compute(self, request):
        self.compute_calls.append(request)
        self.compute_started.set()
        assert self.gate.wait(10), "test gate was never opened"
        return super()._compute(request)


def _wait_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestSingleFlight:
    def test_n_identical_requests_one_computation(self):
        svc = GatedService()
        try:
            results, errors = [], []

            def worker():
                try:
                    results.append(svc.assign_dict(chain_request()))
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            # All six are in: one leader computing (parked at the gate),
            # five followers waiting on its in-flight future.
            assert _wait_until(
                lambda: svc.metrics.singleflight_waits.total() == 5
            ), "followers never coalesced onto the leader"
            svc.gate.set()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            assert len(results) == 6
            assert len(svc.compute_calls) == 1  # the whole point
            assert {
                json.dumps(r["slices"], sort_keys=True) for r in results
            } == {json.dumps(results[0]["slices"], sort_keys=True)}
            assert svc.metrics.assignments.value(source="computed") == 1.0
            assert svc.metrics.assignments.value(source="coalesced") == 5.0
            assert svc.metrics.cache_misses.total() == 6.0
        finally:
            svc.gate.set()
            svc.close()

    def test_leader_failure_propagates_to_followers(self):
        svc = GatedService()

        def boom(request):
            svc.compute_started.set()
            assert svc.gate.wait(10)
            raise RuntimeError("computation exploded")

        svc._compute = boom
        try:
            errors = []

            def worker():
                try:
                    svc.assign_dict(chain_request())
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            assert _wait_until(
                lambda: svc.metrics.singleflight_waits.total() == 2
            )
            svc.gate.set()
            for t in threads:
                t.join(timeout=10)
            assert len(errors) == 3
            assert all("computation exploded" in str(e) for e in errors)
            assert svc.metrics.assignments.value(source="failed") == 3.0
            # Failures are not cached: the digest stays recomputable.
            assert len(svc.cache) == 0
        finally:
            svc.gate.set()
            svc.close()


class TestShardedAdmission:
    def test_platforms_admit_concurrently(self):
        svc = DeadlineAssignmentService()
        try:
            # First admissions create the two controllers.
            svc.assign_dict(
                chain_request(m=2, admit=True, relative_deadline=500.0)
            )
            svc.assign_dict(
                chain_request(m=3, admit=True, relative_deadline=500.0)
            )
            controller_a = svc.admission_controller(identical_platform(2))
            assert controller_a is not None
            blocked = threading.Event()
            release = threading.Event()
            original_submit = controller_a.submit

            def slow_submit(*args, **kwargs):
                blocked.set()
                assert release.wait(10)
                return original_submit(*args, **kwargs)

            controller_a.submit = slow_submit

            thread_a = threading.Thread(
                target=svc.assign_dict,
                args=(
                    chain_request(
                        m=2, admit=True, relative_deadline=500.0
                    ),
                ),
            )
            thread_a.start()
            assert blocked.wait(5)
            # Platform A's shard lock is held mid-admission.  Platform B
            # must still admit — with the old global lock this blocked.
            done_b = threading.Event()

            def admit_b():
                svc.assign_dict(
                    chain_request(m=3, admit=True, relative_deadline=500.0)
                )
                done_b.set()

            thread_b = threading.Thread(target=admit_b, daemon=True)
            thread_b.start()
            assert done_b.wait(5), (
                "platform-B admission queued behind platform A's lock"
            )
            release.set()
            thread_a.join(timeout=10)
            thread_b.join(timeout=10)
        finally:
            release.set()
            svc.close()

    def test_same_platform_admissions_stay_serialized(self):
        svc = DeadlineAssignmentService()
        try:
            docs = []

            def admit():
                docs.append(
                    svc.assign_dict(
                        chain_request(admit=True, relative_deadline=500.0)
                    )
                )

            threads = [threading.Thread(target=admit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert len(docs) == 4
            ids = [d["admission"]["app_id"] for d in docs]
            assert len(set(ids)) == 4  # no duplicate ids under races
        finally:
            svc.close()


class TestAppIdGeneration:
    def test_generated_ids_skip_caller_supplied_names(self):
        with DeadlineAssignmentService() as svc:
            doc1 = svc.assign_dict(
                chain_request(
                    admit=True, relative_deadline=500.0, app_id="app-1"
                )
            )
            assert doc1["admission"]["admitted"] is True
            # Auto-generation must not reuse the committed "app-1".
            doc2 = svc.assign_dict(
                chain_request(admit=True, relative_deadline=500.0)
            )
            assert doc2["admission"]["admitted"] is True
            assert doc2["admission"]["app_id"] == "app-2"

    def test_sequence_only_advances_when_generating(self):
        with DeadlineAssignmentService() as svc:
            svc.assign_dict(
                chain_request(
                    admit=True, relative_deadline=500.0, app_id="zebra"
                )
            )
            doc = svc.assign_dict(
                chain_request(admit=True, relative_deadline=500.0)
            )
            # The caller-supplied "zebra" consumed no sequence number.
            assert doc["admission"]["app_id"] == "app-1"


class TestBackpressureHTTP:
    @pytest.fixture
    def gated_server(self):
        service = GatedService(max_queue=1)
        with serve_in_process(service, retry_after=7) as frontend:
            host, port = frontend.address
            yield f"{host}:{port}", service
            service.gate.set()  # open before the drain waits on it

    def test_overflow_is_429_with_retry_after(self, gated_server):
        addr, service = gated_server
        host, port = addr.rsplit(":", 1)

        def post(doc):
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                conn.request(
                    "POST", "/assign", body=json.dumps(doc).encode()
                )
                response = conn.getresponse()
                return response, json.loads(response.read())
            finally:
                conn.close()

        slow_result = {}

        def slow_post():
            response, body = post(chain_request())
            slow_result["status"] = response.status

        slow = threading.Thread(target=slow_post)
        slow.start()
        assert service.compute_started.wait(5)
        # The single worker is parked and the queue bound is reached: a
        # DISTINCT workload must be shed, not queued.
        response, body = post(chain_request(deadline=123.0))
        assert response.status == 429
        assert response.getheader("Retry-After") == "7"
        assert body["kind"] == "ServiceOverloadError"

        service.gate.set()
        slow.join(timeout=10)
        assert slow_result["status"] == 200

        metrics = self._scrape(host, int(port))
        assert "repro_overload_rejections_total 1" in metrics
        assert (
            'repro_request_errors_total{kind="ServiceOverloadError"} 1'
            in metrics
        )
        assert (
            'repro_requests_total{endpoint="assign",status="429"} 1'
            in metrics
        )

    @staticmethod
    def _scrape(host: str, port: int) -> str:
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def test_engine_raises_typed_overload(self):
        svc = GatedService(max_queue=1)
        try:
            leader_error = []

            def leader():
                try:
                    svc.assign_dict(chain_request())
                except Exception as exc:  # pragma: no cover
                    leader_error.append(exc)

            thread = threading.Thread(target=leader)
            thread.start()
            assert svc.compute_started.wait(5)
            with pytest.raises(ServiceOverloadError):
                svc.assign_dict(chain_request(deadline=321.0))
            svc.gate.set()
            thread.join(timeout=10)
            assert not leader_error
        finally:
            svc.gate.set()
            svc.close()


class TestCallingThread:
    def test_miss_computes_on_the_calling_thread(self):
        computed_on: list[int] = []
        with DeadlineAssignmentService() as svc:
            compute = svc._compute

            def recording(request):
                computed_on.append(threading.get_ident())
                return compute(request)

            svc._compute = recording
            svc.assign_body(json.dumps(chain_request()).encode())
        assert computed_on == [threading.get_ident()]

    def test_building_a_service_starts_no_thread(self):
        # A set difference, not active_count(): threads other tests left
        # behind may exit meanwhile.
        before = set(threading.enumerate())
        svc = DeadlineAssignmentService(max_queue=4)
        try:
            assert set(threading.enumerate()) - before == set()
        finally:
            svc.close()


def _assignments_balance(svc) -> bool:
    metrics = svc.metrics
    return (
        metrics.assignments.total()
        == metrics.cache_hits.total() + metrics.cache_misses.total()
    )


class TestComputeBound:
    def test_max_queue_rejects_overflow_then_recovers(self):
        svc = GatedService(max_queue=1)
        try:
            svc.gate.set()
            svc.assign_dict(chain_request(deadline=111.0))  # cached below
            svc.gate.clear()
            svc.compute_started.clear()
            leader = threading.Thread(
                target=svc.assign_dict, args=(chain_request(),)
            )
            leader.start()
            assert svc.compute_started.wait(5)
            with pytest.raises(ServiceOverloadError):
                svc.assign_dict(chain_request(deadline=321.0))
            # A hit and a follower of the running computation are not shed.
            hit = svc.assign_dict(chain_request(deadline=111.0))
            assert hit["cached"] is True
            follower = threading.Thread(
                target=svc.assign_dict, args=(chain_request(),)
            )
            follower.start()
            assert _wait_until(
                lambda: svc.metrics.singleflight_waits.total() == 1
            )
            svc.gate.set()
            leader.join(10)
            follower.join(10)
            assert not leader.is_alive() and not follower.is_alive()
            # Capacity freed: the shed workload now computes.
            assert svc.assign_dict(chain_request(deadline=321.0))["cached"] is False
            assignments = svc.metrics.assignments
            assert assignments.value(source="computed") == 3.0
            assert assignments.value(source="failed") == 1.0
            assert assignments.value(source="coalesced") == 1.0
            assert _assignments_balance(svc)
        finally:
            svc.gate.set()
            svc.close()

    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_max_queue_below_one_is_rejected(self, max_queue):
        with pytest.raises(ValidationError, match="max_queue"):
            DeadlineAssignmentService(max_queue=max_queue)


class TestClose:
    def test_close_waits_for_running_computation(self):
        svc = GatedService()
        answers: list[dict] = []
        leader = threading.Thread(
            target=lambda: answers.append(svc.assign_dict(chain_request()))
        )
        leader.start()
        assert svc.compute_started.wait(5)
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive(), "close() returned mid-computation"
        svc.gate.set()
        closer.join(10)
        leader.join(10)
        assert not closer.is_alive() and not leader.is_alive()
        assert answers and answers[0]["cached"] is False

    def test_close_timeout_bounds_the_wait(self):
        svc = GatedService()
        leader = threading.Thread(
            target=svc.assign_dict, args=(chain_request(),)
        )
        leader.start()
        try:
            assert svc.compute_started.wait(5)
            started = time.monotonic()
            svc.close(timeout=0.3)
            assert time.monotonic() - started < 1.0
        finally:
            svc.gate.set()
            leader.join(10)
        assert not leader.is_alive()

    def test_computation_after_close_raises(self):
        svc = DeadlineAssignmentService()
        svc.assign_dict(chain_request())
        svc.close()
        with pytest.raises(RuntimeError) as refused:
            svc.assign_dict(chain_request(deadline=123.0))
        assert assign_error(refused.value)[0] == 500
        # Hits are still answered after close.
        assert svc.assign_dict(chain_request())["cached"] is True
        assert svc.metrics.assignments.value(source="failed") == 1.0
        assert _assignments_balance(svc)

    def test_close_is_idempotent(self):
        svc = DeadlineAssignmentService()
        svc.close()
        svc.close()
        svc.close(timeout=0.1)

    def test_front_end_drain_abandons_a_straggler(self):
        """A computation still running at the drain timeout is answered
        500 and left on a daemon thread, which cannot keep the process
        alive."""
        svc = GatedService()
        frontend = PooledFrontend(InProcessBackend(svc))
        frontend.start()
        outcome: list = []

        def client() -> None:
            conn = http.client.HTTPConnection(*frontend.address, timeout=30)
            try:
                conn.request(
                    "POST", "/assign", body=json.dumps(chain_request()).encode()
                )
                response = conn.getresponse()
                outcome.append((response.status, json.loads(response.read())))
            finally:
                conn.close()

        thread = threading.Thread(target=client)
        thread.start()
        try:
            assert svc.compute_started.wait(5)
            started = time.monotonic()
            frontend.close(timeout=0.3)
            assert time.monotonic() - started < 2.0
            thread.join(10)
            assert outcome == [
                (
                    500,
                    {
                        "error": "internal error: assignment drain timed "
                        "out; request abandoned"
                    },
                )
            ]
            threads = frontend.pool._threads
            assert threads and all(t.daemon for t in threads)
        finally:
            svc.gate.set()


class TestKeepAlive:
    @pytest.fixture
    def live_server(self):
        with serve_in_process() as frontend:
            yield frontend.address

    def test_404_with_body_does_not_desync_next_request(self, live_server):
        """Two requests, one connection: 404-with-body, then /assign.

        Regression: the 404 path replied without consuming the request
        body, so the unread bytes were parsed as the *next* request's
        start-line and the connection desynced.
        """
        host, port = live_server
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            bogus = json.dumps({"leftover": "bytes" * 100}).encode()
            conn.request("POST", "/not-a-route", body=bogus)
            response = conn.getresponse()
            assert response.status == 404
            response.read()  # finish the exchange, keep the connection

            conn.request(
                "POST",
                "/assign",
                body=json.dumps(chain_request()).encode(),
            )
            response = conn.getresponse()
            assert response.status == 200
            doc = json.loads(response.read())
            assert doc["format"] == "repro.assign-response/1"
        finally:
            conn.close()

    def test_pipelined_get_after_bad_post(self, live_server):
        host, port = live_server
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/nope", body=b'{"x": 1}')
            assert conn.getresponse().read() is not None
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
        finally:
            conn.close()
