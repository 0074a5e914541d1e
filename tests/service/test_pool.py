"""Topology tests: worker pool, asyncio front end, backpressure, drain.

The pooled service's correctness gate is *equivalence*: byte-identical
``/assign`` bodies and matching metric totals against the front end
over an in-process backend and against a reference
``DeadlineAssignmentService``, plus the same 429/drain guarantees
``tests/service/test_concurrency.py`` pins for the in-process path.
Front-end behaviour that does not depend on the backend (drain,
``Expect: 100-continue``, ``Content-Length``) is checked on both.
Workers are real spawned processes, so counts stay small — one or two
workers per fixture — to keep the suite fast on single-CPU hosts.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
from concurrent.futures import wait

import pytest

from repro.errors import ServiceOverloadError, ValidationError
from repro.service import (
    DeadlineAssignmentService,
    InProcessBackend,
    PooledFrontend,
    WorkerPool,
)
from repro.service.server import assign_error, checked_length

from .conftest import (
    chain_request,
    non_finite_request,
    scrape,
    serve_in_process,
)


def distinct_body(i: int, **extra) -> bytes:
    doc = chain_request(
        wcets=(10 + i, 20 + 2 * i, 15 + i), deadline=200.0 + i, **extra
    )
    return json.dumps(doc).encode()


def post_assign(
    host: str, port: int, body: bytes, timeout: float = 60.0
) -> tuple[int, dict[str, str], bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/assign",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            response.read(),
        )
    finally:
        conn.close()


def totals(series: dict[str, float]) -> dict[str, float]:
    """The topology-equivalence totals of one scrape."""
    return {
        "computed": series.get('repro_assignments_total{source="computed"}', 0),
        "coalesced": series.get(
            'repro_assignments_total{source="coalesced"}', 0
        ),
        "cache_hits": series.get("repro_cache_hits_total", 0),
    }


def reference_answer(
    service: DeadlineAssignmentService, body: bytes
) -> tuple[int, bytes | dict]:
    """*service*'s answer to *body*: ``(200, reply bytes)``, or a
    failure's :func:`assign_error` status and document."""
    try:
        return 200, service.assign_body(body)
    except Exception as exc:  # noqa: BLE001 - mapped like the front end
        status, doc, _kind = assign_error(exc)
        return status, doc


@pytest.fixture(scope="module")
def pooled():
    """One 2-worker pooled front end shared by the equivalence tests."""
    frontend = PooledFrontend(WorkerPool(2, cache_size=256))
    frontend.start(timeout=120.0)
    yield frontend
    frontend.close(timeout=10.0)


class TestPooledEquivalence:
    """Pooled responses are byte-identical to the in-process topology's."""

    def test_assign_bodies_bit_identical(self, pooled):
        reference = DeadlineAssignmentService(cache_size=256)
        phost, pport = pooled.address
        pooled_before = totals(scrape(phost, pport))
        local_service = DeadlineAssignmentService(cache_size=256)
        with serve_in_process(local_service) as local:
            shost, sport = local.address
            # Distinct workloads, a duplicate replay, an invalid
            # request, and an invalid-graph request — every branch of
            # the response contract.
            bodies = [distinct_body(i) for i in range(5)]
            bodies.append(bodies[0])  # duplicate: cached in both
            bad_graph = chain_request()
            bad_graph["graph"]["e2e_deadlines"] = []
            bodies.append(json.dumps(bad_graph).encode())
            bodies.append(b"{not json")
            # The body memo: a body sent three times, a canonically
            # equal body in another key order, an admission sent twice.
            doc = json.loads(bodies[2])
            reordered = json.dumps(dict(reversed(doc.items()))).encode()
            admit = json.dumps(
                chain_request(admit=True, relative_deadline=400.0)
            ).encode()
            bodies += [bodies[1], bodies[1], reordered, admit, admit]
            replies = []
            for body in bodies:
                s_status, _, s_body = post_assign(shost, sport, body)
                p_status, _, p_body = post_assign(phost, pport, body)
                assert p_status == s_status
                assert p_body == s_body
                replies.append(json.loads(s_body))
                status, want = reference_answer(reference, body)
                assert s_status == status
                assert (s_body if status == 200 else replies[-1]) == want
            *_, second, third, equal, admit_1, admit_2 = replies
            assert replies[1]["cached"] is False
            assert second == third == {**replies[1], "cached": True}
            assert reordered != bodies[2]
            assert equal == {**replies[2], "cached": True}
            app_ids = [r["admission"]["app_id"] for r in (admit_1, admit_2)]
            assert app_ids == ["app-1", "app-2"]
            # A sequential replay books the same totals on both
            # topologies (every request lands on pool worker 0).
            local_totals = totals(scrape(shost, sport))
        pooled_after = totals(scrape(phost, pport))
        pooled_totals = {
            key: pooled_after[key] - pooled_before[key] for key in pooled_after
        }
        assert pooled_totals == local_totals

    def test_non_finite_number_is_400(self, pooled):
        host, port = pooled.address
        body = json.dumps(non_finite_request("wcet", math.inf)).encode()
        status, _, reply = post_assign(host, port, body)
        assert status == 400
        doc = json.loads(reply)
        assert doc["kind"] == "ValidationError"
        assert "finite" in doc["error"]

    def test_healthz_and_unknown_path(self, pooled):
        host, port = pooled.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read()) == {
                "error": "unknown path '/nope'"
            }
        finally:
            conn.close()

    def test_keep_alive_pipelines_requests(self, pooled):
        """Many requests reuse one connection, including error replies."""
        host, port = pooled.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            digests = []
            for i in range(6):
                conn.request("POST", "/assign", body=distinct_body(i + 100))
                response = conn.getresponse()
                assert response.status == 200
                digests.append(json.loads(response.read())["digest"])
            # An error response must not poison the connection.
            conn.request("POST", "/assign", body=b"{broken")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            conn.request("POST", "/assign", body=distinct_body(100))
            response = conn.getresponse()
            assert response.status == 200
            doc = json.loads(response.read())
            assert doc["digest"] == digests[0]
            assert doc["cached"] is True
        finally:
            conn.close()

    def test_duplicate_burst_coalesces_in_front_end(self):
        """Concurrent identical bodies share one dispatch (single-flight).

        Uses its own slow 1-worker pool so the burst demonstrably
        overlaps the leader's computation — on a fast shared pool the
        duplicates could serialize into plain cache hits instead.
        """
        pool = WorkerPool(1, compute_delay=0.5)
        frontend = PooledFrontend(pool)
        frontend.start(timeout=120.0)
        host, port = frontend.address
        body = distinct_body(777)
        results: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def worker() -> None:
            status, _, payload = post_assign(host, port, body)
            with lock:
                results.append((status, payload))

        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert len(results) == 6
            assert {status for status, _ in results} == {200}
            assert len({payload for _, payload in results}) == 1
            waits = frontend.metrics.singleflight_waits.total()
            coalesced = frontend.metrics.assignments.value(
                source="coalesced"
            )
            # At least one request must have followed rather than
            # dispatched (exact counts depend on arrival interleaving).
            assert waits >= 1
            assert coalesced == waits
        finally:
            frontend.close(timeout=10.0)

    def test_escaped_admit_key_is_not_coalesced(self):
        """An ``admit`` key spelled with a ``\\u`` escape still admits.

        Two concurrent identical admission bodies must each reach the
        worker and advance its controller, however the key is spelled.
        """
        frontend = PooledFrontend(WorkerPool(1, compute_delay=1.0))
        frontend.start(timeout=120.0)
        host, port = frontend.address
        body = json.dumps(
            chain_request(admit=True, relative_deadline=400.0)
        ).encode().replace(b'"admit"', b'"\\u0061dmit"')
        assert json.loads(body)["admit"] is True
        results: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def worker() -> None:
            status, _, payload = post_assign(host, port, body)
            with lock:
                results.append((status, payload))

        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            assert [status for status, _ in results] == [200, 200]
            app_ids = sorted(
                json.loads(payload)["admission"]["app_id"]
                for _, payload in results
            )
            assert app_ids == ["app-1", "app-2"]
            assert frontend.metrics.singleflight_waits.total() == 0
        finally:
            frontend.close(timeout=10.0)

    def test_metrics_totals_aggregate_across_processes(self, pooled):
        series = scrape(*pooled.address)
        computed = series.get('repro_assignments_total{source="computed"}', 0)
        cache = series.get('repro_assignments_total{source="cache"}', 0)
        coalesced = series.get(
            'repro_assignments_total{source="coalesced"}', 0
        )
        failed = series.get('repro_assignments_total{source="failed"}', 0)
        hits = series.get("repro_cache_hits_total", 0)
        misses = series.get("repro_cache_misses_total", 0)
        # The single-process dashboard invariant must survive the
        # split across front end + workers.
        assert computed + cache + coalesced + failed == hits + misses
        assert hits == cache
        assert computed >= 1 and hits >= 1


def raw_exchange(host: str, port: int, request: bytes) -> tuple[int, bytes]:
    """Send *request* on a fresh socket; read the reply until the server
    closes the connection (a hang fails on the socket timeout)."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class TestContentLength:
    """Both backends refuse a bad ``Content-Length`` alike, then close."""

    def test_bad_lengths_are_refused_on_both_stacks(self, pooled):
        cases = {
            "-1": (413, {"error": "request body too large"}),
            "1099511627776": (413, {"error": "request body too large"}),
            "abc": (400, {"error": "invalid Content-Length"}),
        }
        with serve_in_process() as local:
            stacks = [local.address, pooled.address]
            for path in ("/assign", "/fabric/lease"):
                for value, (status, doc) in cases.items():
                    assert checked_length(value) == (0, (status, doc))
                    request = (
                        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                        f"Content-Length: {value}\r\n\r\n"
                    ).encode()
                    for host, port in stacks:
                        got, body = raw_exchange(host, port, request)
                        assert (got, json.loads(body)) == (status, doc)
            for host, port in stacks:
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().status == 200
                finally:
                    conn.close()


@pytest.fixture(params=["in-process", "pool"])
def backend(request):
    """A fresh backend of each kind (the pool with one worker)."""
    return InProcessBackend() if request.param == "in-process" else WorkerPool(1)


class TestFrontEndProtocol:
    """Drain and ``Expect: 100-continue``, on both backends."""

    def test_idle_keep_alive_client_does_not_delay_close(self, backend):
        frontend = PooledFrontend(backend)
        frontend.start(timeout=120.0)
        conn = http.client.HTTPConnection(*frontend.address, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, idle
            tasks = list(frontend._conns)
            assert tasks
            started = time.monotonic()
            frontend.close(timeout=5.0)
            assert time.monotonic() - started < 1.0
        finally:
            conn.close()
        assert all(task.done() for task in tasks)
        assert not frontend._conns
        assert backend._closed

    def test_expect_100_continue(self, backend):
        with PooledFrontend(backend) as frontend:
            body = distinct_body(5)
            head = (
                "POST /assign HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\n\r\n"
            ).encode()
            with socket.create_connection(frontend.address, timeout=10) as sock:
                sock.sendall(head)
                sock.settimeout(1.0)
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed before 100 Continue"
                    interim += chunk
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.settimeout(30.0)
                sock.sendall(body)
                reply = sock.makefile("rb").readline()
            assert reply.startswith(b"HTTP/1.1 200 ")


class TestPooledBackpressure:
    """429 + Retry-After under saturation, without stranded futures."""

    def test_pool_submit_sheds_when_full(self):
        with WorkerPool(1, max_queue=1, compute_delay=0.5) as pool:
            pool.start(timeout=120.0)
            first = pool.submit(distinct_body(0))
            with pytest.raises(ServiceOverloadError):
                for i in range(1, 10):
                    pool.submit(distinct_body(i))
            reply = json.loads(first.result(timeout=60.0))
            assert reply["format"].startswith("repro.")

    def test_http_burst_returns_429_with_retry_after(self):
        pool = WorkerPool(1, max_queue=1, compute_delay=0.5)
        frontend = PooledFrontend(pool, retry_after=7)
        frontend.start(timeout=120.0)
        host, port = frontend.address
        results: list[tuple[int, dict[str, str]]] = []
        lock = threading.Lock()

        def worker(i: int) -> None:
            status, headers, _ = post_assign(
                host, port, distinct_body(i)
            )
            with lock:
                results.append((status, headers))

        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            statuses = sorted(status for status, _ in results)
            assert len(results) == 8
            assert 200 in statuses
            assert 429 in statuses
            assert set(statuses) <= {200, 429}
            for status, headers in results:
                if status == 429:
                    assert headers.get("retry-after") == "7"
            assert frontend.metrics.overloads.total() == statuses.count(429)
        finally:
            frontend.close(timeout=10.0)

    def test_max_queue_below_one_is_rejected(self):
        with pytest.raises(ValidationError, match="max_queue"):
            WorkerPool(1, max_queue=0)

    def test_close_answers_a_request_in_flight(self):
        """A request still in the worker when ``stop`` arrives (here in
        the ``compute_delay`` hook, before parsing) is answered, and the
        drain ends with it rather than at its timeout."""
        pool = WorkerPool(1, compute_delay=0.5)
        pool.start(timeout=120.0)
        future = pool.submit(distinct_body(0))
        started = time.monotonic()
        pool.close(timeout=5.0)
        assert time.monotonic() - started < 2.0
        reply = future.result(timeout=0)
        assert isinstance(reply, bytes)
        assert json.loads(reply)["format"] == "repro.assign-response/1"

    def test_drain_timeout_fails_stragglers_without_hanging(self):
        pool = WorkerPool(1, compute_delay=2.0)
        pool.start(timeout=120.0)
        futures = [pool.submit(distinct_body(i)) for i in range(3)]
        started = time.monotonic()
        pool.close(timeout=0.3)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        for future in futures:
            assert future.done()
            assert future.cancelled() or future.exception() is not None

    def test_frontend_drain_is_bounded(self):
        pool = WorkerPool(1, compute_delay=5.0)
        frontend = PooledFrontend(pool)
        frontend.start(timeout=120.0)
        host, port = frontend.address
        outcome: list[object] = []

        def slow_client() -> None:
            try:
                outcome.append(post_assign(host, port, distinct_body(0)))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                outcome.append(exc)

        client = threading.Thread(target=slow_client, daemon=True)
        client.start()
        time.sleep(0.5)  # let the request reach the worker
        started = time.monotonic()
        frontend.close(timeout=0.5)
        assert time.monotonic() - started < 20.0
        client.join(10.0)
        # The straggler was answered (500 after its future was failed)
        # or dropped with the connection — never left hanging.
        assert not client.is_alive()


class TestWorkerDeath:
    def test_dead_worker_fails_inflight_and_pool_reports(self):
        pool = WorkerPool(1, compute_delay=3.0)
        pool.start(timeout=120.0)
        try:
            future = pool.submit(distinct_body(0))
            handle = pool._handles[0]
            started = time.monotonic()
            handle.proc.terminate()
            # The in-flight future fails with the worker-death
            # RuntimeError, and ``wait`` sees it (a cancelled future
            # would leave ``wait`` blocked for its whole timeout).
            done, _ = wait([future], timeout=5.0)
            assert future in done
            assert time.monotonic() - started < 2.0
            with pytest.raises(RuntimeError, match="exited"):
                future.result(timeout=0)
            deadline = time.monotonic() + 10.0
            while pool.workers and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.workers == 0
            with pytest.raises(RuntimeError):
                pool.submit(distinct_body(1))
        finally:
            pool.close(timeout=5.0)


class TestReaderTeardown:
    def test_held_reader_keeps_its_pipe_until_it_leaves(self, monkeypatch):
        """A reader inside ``Connection._recv`` has copied its pipe's fd
        number before reading.  Pool A's reader is held right there
        while A closes and pool B starts; A's fd must stay open until
        that reader leaves, or B's pipe can reuse the number and A's
        reader steal B's replies.  B must start and answer, and no
        reader thread may die of an unhandled exception."""
        import io
        import os
        from multiprocessing import connection as mpc

        original = mpc.Connection._recv
        watched: list = []
        held = threading.Event()
        release = threading.Event()

        def recv(self, size, read=os.read):
            if self in watched and size == 4 and not held.is_set():
                handle = self._handle  # what ``_recv`` copies first
                held.set()
                release.wait(30.0)
                buf = io.BytesIO()
                remaining = size
                while remaining > 0:
                    chunk = read(handle, remaining)
                    if not chunk:
                        if remaining == size:
                            raise EOFError
                        raise OSError("got end of file during message")
                    buf.write(chunk)
                    remaining -= len(chunk)
                return buf
            return original(self, size, read)

        crashes: list = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        monkeypatch.setattr(mpc.Connection, "_recv", recv)

        pool_a = WorkerPool(1)
        pool_b = WorkerPool(1)
        pool_a.start(timeout=120.0)
        try:
            handle_a = pool_a._handles[0]
            watched.append(handle_a.conn)
            # One reply carries the reader into its next header read.
            assert len(pool_a.metrics_snapshots(timeout=30.0)) == 1
            assert held.wait(30.0)
            pool_a.close(timeout=1.0)
            assert not handle_a.conn.closed  # its reader still holds the fd

            pool_b.start(timeout=120.0)
            release.set()
            handle_a.reader.join(10.0)
            assert not handle_a.reader.is_alive()
            assert handle_a.conn.closed  # closed by the reader as it left
            for i in range(3):
                reply = pool_b.submit(distinct_body(i)).result(timeout=60.0)
                assert json.loads(reply)["format"] == "repro.assign-response/1"
        finally:
            release.set()
            pool_a.close(timeout=5.0)
            pool_b.close(timeout=5.0)
        assert crashes == []

    def test_undecodable_frame_fails_pending_futures_saying_so(self):
        from multiprocessing import Pipe

        from repro.service.pool import _WorkerHandle

        conn, worker_end = Pipe()
        handle = _WorkerHandle(0, None, conn)
        future = handle.register(1)
        worker_end.send_bytes(b"not a pickle")  # a corrupted frame
        handle.read_loop()
        with pytest.raises(RuntimeError, match="undecodable reply"):
            future.result(timeout=0)
        assert conn.closed and not handle.alive
        worker_end.close()

    def test_ended_pipe_fails_pending_futures_saying_so(self):
        from multiprocessing import Pipe

        from repro.service.pool import _WorkerHandle

        conn, worker_end = Pipe()
        handle = _WorkerHandle(0, None, conn)
        future = handle.register(1)
        worker_end.close()  # the worker is gone
        handle.read_loop()
        with pytest.raises(RuntimeError, match="exited with requests"):
            future.result(timeout=0)
        assert conn.closed and not handle.alive
