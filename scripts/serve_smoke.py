#!/usr/bin/env python
"""End-to-end smoke test for the online deadline-assignment service.

Starts the asyncio front end over an in-process service (the
``--workers 1`` topology) on an ephemeral port, POSTs one assignment
twice (the second must be a cache hit), POSTs two malformed graph
documents (each must answer a 400 JSON error), scrapes ``/metrics``,
and shuts down.  With ``--workers N`` (N ≥ 2) a second leg repeats the
exercise against the pooled topology — the same front end over
pre-forked workers — over one keep-alive connection, forces a 429 +
``Retry-After`` out of a saturated one-worker pool, and checks the
drain stays bounded.
Prints ``OK`` and exits 0 on success; any failure exits non-zero.

Run via ``make serve-smoke`` / ``make serve-pool-smoke`` or directly::

    PYTHONPATH=src python scripts/serve_smoke.py [--workers 2]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.graph import chain_graph, graph_to_dict
from repro.service import InProcessBackend, PooledFrontend, WorkerPool
from repro.system import identical_platform
from repro.system.platform import platform_to_dict


def smoke_body() -> bytes:
    graph = chain_graph([10, 20, 15])
    graph.set_uniform_e2e_deadline(90.0)
    return json.dumps(
        {
            "graph": graph_to_dict(graph),
            "platform": platform_to_dict(identical_platform(2)),
            "metric": "ADAPT-L",
        }
    ).encode()


def malformed_bodies() -> list[tuple[str, bytes]]:
    """Graph documents the service must refuse with 400, not 500."""
    doc = json.loads(smoke_body())
    wcet_list = json.loads(json.dumps(doc))
    wcet_list["graph"]["tasks"][0]["wcet"] = [1, 2]
    # One integer id, used consistently by the edges and pairs.
    int_id = json.loads(json.dumps(doc))
    graph = int_id["graph"]
    old_id = graph["tasks"][0]["id"]
    graph["tasks"][0]["id"] = 7
    for ref in graph["edges"] + graph["e2e_deadlines"]:
        for end in ("src", "dst"):
            if ref[end] == old_id:
                ref[end] = 7
    return [
        ("wcet list", json.dumps(wcet_list).encode()),
        ("integer task id", json.dumps(int_id).encode()),
    ]


def check_refused(status: int, payload: bytes, name: str) -> None:
    assert status == 400, f"{name} body answered {status}, not 400"
    doc = json.loads(payload)
    assert doc.get("kind") == "SerializationError", f"{name} body: {doc}"


def single_process_smoke() -> int:
    frontend = PooledFrontend(InProcessBackend())
    frontend.start()
    host, port = frontend.address
    base = f"http://{host}:{port}"
    try:
        body = smoke_body()

        with urllib.request.urlopen(base + "/healthz") as response:
            assert response.status == 200, "healthz failed"

        docs = []
        for _ in range(2):
            request = urllib.request.Request(
                base + "/assign",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200, "assign failed"
                docs.append(json.loads(response.read()))
        first, second = docs
        assert len(first["slices"]) == 3, "expected one slice per task"
        assert not first["cached"], "first request must be computed"
        assert second["cached"], "second request must be a cache hit"
        assert second["slices"] == first["slices"], "cache changed the answer"

        for name, bad in malformed_bodies():
            request = urllib.request.Request(base + "/assign", data=bad)
            try:
                with urllib.request.urlopen(request) as response:
                    status, payload = response.status, response.read()
            except urllib.error.HTTPError as exc:
                status, payload = exc.code, exc.read()
            check_refused(status, payload, name)

        with urllib.request.urlopen(base + "/metrics") as response:
            text = response.read().decode()
        for needle in (
            'repro_requests_total{endpoint="assign",status="200"} 2',
            'repro_requests_total{endpoint="assign",status="400"} 2',
            "repro_cache_hits_total 1",
            "repro_cache_misses_total 1",
            "repro_assign_latency_seconds_count 2",
        ):
            assert needle in text, f"metrics missing {needle!r}"
    except AssertionError as exc:
        print(f"serve-smoke: FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        frontend.close(timeout=10.0)
    print(f"serve-smoke: OK ({base}/assign answered, cache hit, metrics sane)")
    return 0


def pooled_smoke(workers: int) -> int:
    """Pooled-topology leg: pipelining, a forced 429, bounded drain."""
    body = smoke_body()

    # Leg A: keep-alive pipelining against a real multi-worker pool.
    frontend = PooledFrontend(WorkerPool(workers))
    frontend.start(timeout=120.0)
    host, port = frontend.address
    try:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200, "pooled healthz failed"
            response.read()
            docs = []
            for _ in range(2):  # same connection: keep-alive pipelining
                conn.request(
                    "POST",
                    "/assign",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200, "pooled assign failed"
                docs.append(json.loads(response.read()))
            first, second = docs
            assert not first["cached"], "pooled first request must compute"
            assert second["cached"], "pooled second must be a cache hit"
            assert second["slices"] == first["slices"], "pool changed answer"
            # An error reply must not poison the connection.
            conn.request("POST", "/assign", body=b"{broken")
            response = conn.getresponse()
            assert response.status == 400, "bad JSON must be 400"
            response.read()
            for name, bad in malformed_bodies():
                conn.request("POST", "/assign", body=bad)
                response = conn.getresponse()
                check_refused(response.status, response.read(), name)
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200, "pooled metrics scrape failed"
            text = response.read().decode()
        finally:
            conn.close()
        for needle in (
            "repro_cache_hits_total 1",
            "repro_cache_misses_total 1",
            'repro_requests_total{endpoint="assign",status="400"} 3',
        ):
            assert needle in text, f"pooled metrics missing {needle!r}"
    except AssertionError as exc:
        print(f"serve-smoke: FAIL (pooled): {exc}", file=sys.stderr)
        return 1
    finally:
        frontend.close(timeout=10.0)

    # Leg B: saturate a deliberately slow one-worker pool; at least one
    # request must be shed with 429 + Retry-After, and closing the
    # front end mid-flight must stay bounded (the drain contract).
    frontend = PooledFrontend(
        WorkerPool(1, max_queue=1, compute_delay=0.5), retry_after=3
    )
    frontend.start(timeout=120.0)
    host, port = frontend.address
    statuses: list[tuple[int, str | None]] = []
    lock = threading.Lock()

    def burst(i: int) -> None:
        graph = chain_graph([10 + i, 20, 15])
        graph.set_uniform_e2e_deadline(90.0 + i)
        payload = json.dumps(
            {
                "graph": graph_to_dict(graph),
                "platform": platform_to_dict(identical_platform(2)),
                "metric": "ADAPT-L",
            }
        ).encode()
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("POST", "/assign", body=payload)
            response = conn.getresponse()
            response.read()
            with lock:
                statuses.append(
                    (response.status, response.getheader("Retry-After"))
                )
        finally:
            conn.close()

    try:
        threads = [
            threading.Thread(target=burst, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        codes = sorted(status for status, _ in statuses)
        assert len(statuses) == 6, "burst requests went unanswered"
        assert 429 in codes, "saturated pool never shed a request"
        assert set(codes) <= {200, 429}, f"unexpected statuses {codes}"
        for status, retry_after in statuses:
            if status == 429:
                assert retry_after == "3", "429 without Retry-After: 3"
    except AssertionError as exc:
        print(f"serve-smoke: FAIL (backpressure): {exc}", file=sys.stderr)
        frontend.close(timeout=10.0)
        return 1

    started = time.monotonic()
    frontend.close(timeout=2.0)
    drain = time.monotonic() - started
    if drain > 30.0:
        print(f"serve-smoke: FAIL: drain took {drain:.1f}s", file=sys.stderr)
        return 1
    print(
        f"serve-smoke: OK (pooled x{workers}: pipelined, cache hit, "
        f"{codes.count(429)} shed with Retry-After, drained in {drain:.1f}s)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also smoke the pooled topology with this many workers (≥2)",
    )
    args = parser.parse_args(argv)
    status = single_process_smoke()
    if status == 0 and args.workers >= 2:
        status = pooled_smoke(args.workers)
    return status


if __name__ == "__main__":
    sys.exit(main())
