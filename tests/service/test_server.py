"""End-to-end tests of the deadline-assignment service and HTTP layer."""

import http.client
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.core.slicing import distribute_deadlines
from repro.graph import chain_graph, graph_from_dict, graph_to_dict
from repro.rng import make_rng
from repro.service import DeadlineAssignmentService
from repro.system import identical_platform
from repro.system.platform import platform_from_dict, platform_to_dict
from repro.workload import WorkloadParams, generate_workload

from .conftest import (
    chain_request,
    non_finite_request,
    scrape,
    serve_in_process,
)


@pytest.fixture
def service():
    with DeadlineAssignmentService() as svc:
        yield svc


@pytest.fixture
def http_server():
    with serve_in_process() as frontend:
        host, port = frontend.address
        yield frontend, f"http://{host}:{port}"


def post(base: str, path: str, doc) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestServiceEngine:
    def test_golden_slices_match_offline_distribution(self, service):
        doc = service.assign_dict(chain_request())
        graph = graph_from_dict(chain_request()["graph"])
        platform = platform_from_dict(chain_request()["platform"])
        offline = distribute_deadlines(graph, platform, "ADAPT-L")
        assert {s["task"]: s for s in doc["slices"]}.keys() == set(
            offline.windows
        )
        for s in doc["slices"]:
            w = offline.windows[s["task"]]
            assert s["arrival"] == w.arrival
            assert s["relative_deadline"] == w.relative_deadline
            assert s["absolute_deadline"] == w.absolute_deadline

    def test_second_identical_request_hits_cache(self, service):
        first = service.assign_dict(chain_request())
        second = service.assign_dict(chain_request())
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["slices"] == first["slices"]
        assert service.metrics.cache_hits.total() == 1.0
        assert service.cache.stats().hits == 1

    def test_distinct_workloads_do_not_collide(self, service):
        a = service.assign_dict(chain_request())
        b = service.assign_dict(chain_request(deadline=120.0))
        assert a["digest"] != b["digest"]
        assert b["cached"] is False

    def test_admission_is_stateful_per_platform(self, service):
        # One processor, apps back to back: first fits, second does not.
        doc1 = service.assign_dict(
            chain_request(m=1, admit=True, relative_deadline=50.0)
        )
        assert doc1["admission"]["admitted"] is True
        doc2 = service.assign_dict(
            chain_request(m=1, admit=True, relative_deadline=50.0)
        )
        assert doc2["admission"]["admitted"] is False
        assert doc2["admission"]["reason"]
        # The slices themselves came from the cache, unaffected by state.
        assert doc2["cached"] is True
        controller = service.admission_controller(identical_platform(1))
        assert controller is not None
        assert controller.admitted_ids() == [doc1["admission"]["app_id"]]

    def test_admission_app_ids_autogenerated_unique(self, service):
        ids = set()
        for _ in range(3):
            doc = service.assign_dict(
                chain_request(admit=True, relative_deadline=500.0)
            )
            ids.add(doc["admission"]["app_id"])
        assert len(ids) == 3

    def test_concurrent_identical_requests_converge(self, service):
        results = []
        errors = []

        def worker():
            try:
                results.append(service.assign_dict(chain_request()))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and len(results) == 8
        slices = {json.dumps(r["slices"], sort_keys=True) for r in results}
        assert len(slices) == 1
        lookups = service.cache.stats().lookups
        assert lookups == 8


class TestHttpEndpoints:
    def test_healthz(self, http_server):
        _, base = http_server
        status, body = get(base, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_assign_round_trip_and_metrics_exposition(self, http_server):
        _, base = http_server
        status, doc = post(base, "/assign", chain_request())
        assert status == 200
        assert doc["format"] == "repro.assign-response/1"
        assert len(doc["slices"]) == 3

        status, doc2 = post(base, "/assign", chain_request())
        assert status == 200 and doc2["cached"] is True

        status, body = get(base, "/metrics")
        assert status == 200
        text = body.decode()
        assert 'repro_requests_total{endpoint="assign",status="200"} 2' in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_cache_hit_rate 0.5" in text
        assert 'repro_assign_latency_seconds{quantile="0.99"}' in text
        assert "repro_assign_latency_seconds_count 2" in text

    def test_admit_over_http(self, http_server):
        _, base = http_server
        status, doc = post(
            base,
            "/assign",
            chain_request(admit=True, relative_deadline=90.0),
        )
        assert status == 200
        assert doc["admission"]["admitted"] is True
        assert doc["admission"]["response_time"] > 0.0

    def test_malformed_json_is_400(self, http_server):
        _, base = http_server
        request = urllib.request.Request(
            base + "/assign", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]

    def test_validation_error_is_400_with_kind(self, http_server):
        _, base = http_server
        status, doc = post(base, "/assign", {"bogus": 1})
        assert status == 400
        assert doc["kind"] == "ValidationError"
        status, doc = post(base, "/assign", chain_request(metric="SUPER"))
        assert status == 400
        assert doc["kind"] == "MetricError"

    def test_missing_e2e_deadline_is_400(self, http_server):
        _, base = http_server
        from repro.graph import graph_to_dict
        from repro.system.platform import platform_to_dict

        graph = chain_graph([10, 20])  # no E-T-E deadline set
        status, doc = post(
            base,
            "/assign",
            {
                "graph": graph_to_dict(graph),
                "platform": platform_to_dict(identical_platform(2)),
            },
        )
        assert status == 400
        assert doc["kind"] in ("DistributionError", "ValidationError")

    def test_non_finite_number_is_400(self, http_server):
        _, base = http_server
        status, doc = post(
            base, "/assign", non_finite_request("e2e_deadline", math.nan)
        )
        assert status == 400
        assert doc["kind"] == "ValidationError"
        assert "finite" in doc["error"]

    def test_unknown_paths_are_404(self, http_server):
        _, base = http_server
        assert get(base, "/nope")[0] == 404
        assert post(base, "/nope", {})[0] == 404

    def test_error_requests_are_counted(self, http_server):
        _, base = http_server
        post(base, "/assign", {"bogus": 1})
        _, body = get(base, "/metrics")
        text = body.decode()
        assert 'repro_request_errors_total{kind="ValidationError"} 1' in text
        assert 'repro_requests_total{endpoint="assign",status="400"} 1' in text


class TestVecFlushTier:
    """A burst of distinct workloads computed on concurrent calling
    threads answers exactly like one computation at a time."""

    def test_burst_of_distinct_workloads_served_through_batcher(self):
        """End to end: a distinct burst answers correctly."""
        from repro.service.api import request_from_dict, request_digest

        docs = [
            chain_request(
                wcets=(10 + i, 20 + 2 * i, 15 + i), deadline=250.0 + i
            )
            for i in range(12)
        ]
        with DeadlineAssignmentService() as svc:
            expected = {
                request_digest(request_from_dict(doc)): svc._compute(
                    request_from_dict(doc)
                )
                for doc in docs
            }
            responses = {}
            threads = []
            lock = threading.Lock()

            def call(doc):
                response = svc.assign(request_from_dict(doc))
                with lock:
                    responses[response.digest] = response

            for doc in docs:
                threads.append(threading.Thread(target=call, args=(doc,)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert len(responses) == 12
            for digest, assignment in expected.items():
                got = responses[digest]
                want = [
                    (tid, w.arrival, w.relative_deadline)
                    for tid, w in sorted(assignment.windows.items())
                ]
                have = [
                    (s.task_id, s.arrival, s.relative_deadline)
                    for s in got.slices
                ]
                assert have == want


def workload_bodies(count: int) -> list[bytes]:
    """Distinct mid-size workloads (40 tasks), one request body each."""
    params = WorkloadParams(m=4, n_tasks_range=(40, 40))
    bodies = []
    for seed in range(count):
        workload = generate_workload(params, make_rng(seed))
        doc = {
            "graph": graph_to_dict(workload.graph),
            "platform": platform_to_dict(workload.platform),
            "metric": "ADAPT-L",
        }
        bodies.append(json.dumps(doc).encode())
    return bodies


def drive(address, bodies: list[bytes], clients: int) -> list[float]:
    """POST every body from *clients* keep-alive connections at once;
    returns each request's latency in seconds."""

    def client(chunk: list[bytes]) -> list[float]:
        latencies = []
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            for body in chunk:
                start = time.perf_counter()
                conn.request("POST", "/assign", body=body)
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
                latencies.append(time.perf_counter() - start)
        finally:
            conn.close()
        return latencies

    chunks = [bodies[i::clients] for i in range(clients)]
    with ThreadPoolExecutor(max_workers=clients) as pool:
        return [t for ts in pool.map(client, chunks) for t in ts]


class TestLoad:
    """Concurrent clients on the in-process front end: every miss
    computes once, replays are hits, and the counters add up."""

    def test_cold_misses_then_warm_hits(self):
        bodies = workload_bodies(16)
        service = DeadlineAssignmentService(cache_size=4096)
        with serve_in_process(service) as frontend:
            host, port = frontend.address
            cold = drive(frontend.address, bodies, clients=4)
            stats = service.cache.stats()
            assert stats.misses == len(bodies) and stats.hits == 0
            _, text = get(f"http://{host}:{port}", "/metrics")
            for line in (
                'repro_requests_total{endpoint="assign",status="200"} 16',
                "repro_cache_misses_total 16",
                "repro_assign_latency_seconds_count 16",
            ):
                assert line in text.decode()
            warm = drive(frontend.address, bodies, clients=4)
            assert service.cache.stats().hits == len(bodies)
            assert service.metrics.assign_latency.count == 2 * len(bodies)
        assert statistics.median(warm) < statistics.median(cold)

    def test_duplicate_heavy_traffic_coalesces(self):
        total, clients = 96, 8
        distinct = total // 16
        bodies = (workload_bodies(distinct) * (total // distinct + 1))[:total]
        random.Random(2026).shuffle(bodies)
        with serve_in_process() as frontend:
            drive(frontend.address, bodies, clients)
            series = scrape(*frontend.address)
        computed = series['repro_assignments_total{source="computed"}']
        coalesced = series.get('repro_assignments_total{source="coalesced"}', 0)
        hits = series["repro_cache_hits_total"]
        # Each distinct workload computes at least once; more than
        # distinct + clients would mean in-flight duplicates recomputed.
        assert distinct <= computed <= distinct + clients
        assert computed + coalesced + hits == total


_SERVE_IMPORTS = """
import json, sys
import repro.__main__
from repro.cli.main import build_serve_parser
build_serve_parser()
import repro.service.frontend, repro.service.pool, repro.service.server
service = repro.service.server.DeadlineAssignmentService()
reply = json.loads(service.assign_body(sys.stdin.buffer.read()))
assert reply["format"] == "repro.assign-response/1", reply
assert "numpy" not in sys.modules, "a repro serve process imported NumPy"
assert "http.server" not in sys.modules, "a repro serve process imported http.server"
"""


class TestServeProcessImports:
    def test_serve_process_does_not_import_numpy(self):
        """A ``repro serve`` process answers ``/assign`` without NumPy,
        which only the experiment harness and workload generator use,
        and without ``http.server``: the asyncio front end is its only
        HTTP stack."""
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", _SERVE_IMPORTS],
            input=json.dumps(chain_request()).encode(),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
