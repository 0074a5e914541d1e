"""The body memo behind ``DeadlineAssignmentService.assign_body``.

A repeated raw ``/assign`` body is answered from its bytes: its SHA-256
leads to the remembered request digest, and that digest to one cache
lookup.  These tests pin what that shortcut must keep: the replies and
counters of the full path, the bound, the LRU (and its spill tier) as
the only record of what is cached, and both under thread interleaving.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import sys
import threading

import pytest

from repro.service import DeadlineAssignmentService
from repro.service import server as server_module

from .conftest import chain_request, serve_in_process


def body(i: int, **extra) -> bytes:
    doc = chain_request(
        wcets=(10 + i, 20 + 2 * i, 15 + i), deadline=200.0 + i, **extra
    )
    return json.dumps(doc).encode()


@pytest.fixture
def parses(monkeypatch) -> list:
    """One entry per ``request_from_dict`` call on the body path."""
    calls: list = []
    real = server_module.request_from_dict

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(server_module, "request_from_dict", counting)
    return calls


def counts(service: DeadlineAssignmentService) -> dict[str, float]:
    metrics = service.metrics
    stats = service.cache.stats()
    return {
        "hits": metrics.cache_hits.total(),
        "misses": metrics.cache_misses.total(),
        "from_cache": metrics.assignments.value(source="cache"),
        "computed": metrics.assignments.value(source="computed"),
        "assignments": metrics.assignments.total(),
        "lru_hits": stats.hits,
        "lookups": stats.lookups,
        "latency": metrics.assign_latency.count,
    }


def rise(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


class TestMemoHit:
    def test_repeats_book_exactly_a_cache_hit(self, parses):
        with DeadlineAssignmentService() as service:
            first = service.assign_body(body(0))
            assert json.loads(first)["cached"] is False
            before = counts(service)
            replies = {service.assign_body(body(0)) for _ in range(5)}
            after = counts(service)
            assert len(parses) == 1  # the repeats never parsed
            assert rise(before, after) == {
                "hits": 5, "misses": 0, "from_cache": 5, "computed": 0,
                "assignments": 5, "lru_hits": 5, "lookups": 5, "latency": 5,
            }
            assert after["assignments"] == after["hits"] + after["misses"]
            # The memo reply is exactly what the full path encodes.
            full = service.assign_dict(json.loads(body(0)))
            assert replies == {json.dumps(full, allow_nan=False).encode()}
            assert json.loads(first) == {**full, "cached": False}

    def test_http_repeats_count_one_request_each(self, parses):
        with serve_in_process() as frontend:
            conn = http.client.HTTPConnection(*frontend.address, timeout=30)
            try:
                replies = []
                for _ in range(4):
                    conn.request("POST", "/assign", body=body(1))
                    response = conn.getresponse()
                    assert response.status == 200
                    replies.append(json.loads(response.read()))
            finally:
                conn.close()
            # The front end counts HTTP requests, the service the rest.
            requests = frontend.metrics.requests
            metrics = frontend.pool.service.metrics
            assert [r["cached"] for r in replies] == [False, True, True, True]
            assert len(parses) == 1
            assert requests.value(endpoint="assign", status="200") == 4
            assert metrics.cache_hits.total() == 3
            assert metrics.assign_latency.count == 4

    def test_admissions_and_failures_are_never_remembered(self, parses):
        admit = body(2, admit=True, relative_deadline=500.0)
        invalid = json.dumps({"graph": {}}).encode()
        with DeadlineAssignmentService() as service:
            app_ids = [
                json.loads(service.assign_body(admit))["admission"]["app_id"]
                for _ in range(2)
            ]
            assert app_ids == ["app-1", "app-2"]
            for bad, error in (
                (b"{nope", server_module.BadJSONError),
                (invalid, Exception),
            ):
                for _ in range(2):
                    with pytest.raises(error):
                        service.assign_body(bad)
            assert len(parses) == 4  # two admissions, two invalid bodies
            assert len(service._memo) == 0


def post(conn: http.client.HTTPConnection, raw: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/assign", body=raw)
    response = conn.getresponse()
    return response.status, response.read()


class TestLoopHit:
    """The front end answers a kept memo hit on its event loop."""

    def test_kept_hit_needs_no_request_thread(self, monkeypatch):
        with serve_in_process() as frontend:
            service = frontend.pool.service
            conn = http.client.HTTPConnection(*frontend.address, timeout=30)
            try:
                # Computed, then answered from the cache: the memo now
                # keeps the encoded reply.
                replies = [post(conn, body(3))[1] for _ in range(2)]

                def refuse(raw: bytes) -> bytes:
                    raise AssertionError("a kept hit reached assign_body")

                monkeypatch.setattr(service, "assign_body", refuse)
                before = counts(service)
                status, reply = post(conn, body(3))
            finally:
                conn.close()
            assert status == 200
            assert reply == replies[1]
            assert json.loads(reply)["cached"] is True
            assert rise(before, counts(service)) == {
                "hits": 1, "misses": 0, "from_cache": 1, "computed": 0,
                "assignments": 1, "lru_hits": 1, "lookups": 1, "latency": 1,
            }

    def test_spill_hit_is_read_off_the_loop(self, tmp_path):
        service = DeadlineAssignmentService(
            cache_size=2, cache_dir=tmp_path / "spill"
        )
        with serve_in_process(service) as frontend:
            conn = http.client.HTTPConnection(*frontend.address, timeout=30)
            try:
                first = [post(conn, body(0))[1] for _ in range(2)][1]
                digest = json.loads(first)["digest"]
                # Evict body 0's digest from memory; the memo keeps it.
                service.assign_dict(json.loads(body(1)))
                service.assign_dict(json.loads(body(2)))
                assert digest not in service.cache
                readers: list[int] = []
                load = service.cache.spill.load

                def recording(key):
                    readers.append(threading.get_ident())
                    return load(key)

                service.cache.spill.load = recording
                status, reply = post(conn, body(0))
            finally:
                conn.close()
            assert (status, reply) == (200, first)
            assert readers
            assert frontend._thread.ident not in readers


class TestMemoBound:
    def test_holds_at_most_cache_size_bodies(self, parses):
        with DeadlineAssignmentService(cache_size=2) as service:
            for i in range(3):
                service.assign_body(body(i))
            assert len(service._memo) == 2
            service.assign_body(body(2))
            assert len(parses) == 3  # body 2 is still remembered
            service.assign_body(body(0))  # the oldest was dropped
            assert len(parses) == 4
            assert len(service._memo) == 2

    @pytest.mark.parametrize("spill", [False, True])
    def test_evicted_digest_takes_one_lookup(self, tmp_path, parses, spill):
        """The memo outlives the LRU entry; the lookup decides.

        ``assign_dict`` touches the LRU but not the memo, so body 0
        stays remembered while its digest is evicted.  Without a spill
        tier it is recomputed once, with one miss; with one it is
        restored as a hit.
        """
        with DeadlineAssignmentService(
            cache_size=2,
            cache_dir=tmp_path / "spill" if spill else None,
        ) as service:
            first = service.assign_body(body(0))
            service.assign_body(body(1))
            service.assign_dict(json.loads(body(2)))
            service.assign_dict(json.loads(body(3)))
            assert len(service._memo) == 2
            before, parsed = counts(service), len(parses)
            again = service.assign_body(body(0))
            step = rise(before, counts(service))
            assert step["lookups"] == 1
            if spill:
                assert again == first.replace(
                    b'"cached": false', b'"cached": true'
                )
                assert (step["hits"], step["misses"]) == (1, 0)
                assert len(parses) == parsed
            else:
                assert again == first
                assert (step["hits"], step["misses"]) == (0, 1)
                assert step["computed"] == 1
                assert len(parses) == parsed + 1  # parsed to recompute
            assert step["assignments"] == step["hits"] + step["misses"]


class TestMemoStress:
    def test_threads_get_single_threaded_bytes(self):
        """Replies and counters stay exact under heavy interleaving.

        The cache is smaller than the body set, so memo hits race
        evictions, recomputations and memo inserts.  Every reply must
        be one of the two a single thread sees for its body (first
        answer and repeat), and the counters must add up.
        """
        bodies = [body(i) for i in range(6)]
        doc = json.loads(bodies[0])
        bodies.append(json.dumps(dict(reversed(doc.items()))).encode())
        expected = {}
        for raw in bodies:
            with DeadlineAssignmentService() as ref:
                expected[raw] = {ref.assign_body(raw), ref.assign_body(raw)}
        threads_n = max(8, 4 * (os.cpu_count() or 1))
        per_thread = 40
        wrong: list[bytes] = []
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        with DeadlineAssignmentService(cache_size=4) as service:

            def client(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for _ in range(per_thread):
                        raw = rng.choice(bodies)
                        if service.assign_body(raw) not in expected[raw]:
                            wrong.append(raw)
                except BaseException as exc:  # noqa: BLE001 - asserted
                    errors.append(exc)

            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=client, args=(seed,))
                    for seed in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert wrong == []
            total = counts(service)
            assert total["latency"] == threads_n * per_thread
            assert total["assignments"] == total["hits"] + total["misses"]
            assert total["hits"] == total["lru_hits"] == total["from_cache"]
            assert total["lookups"] == total["hits"] + total["misses"]
            assert len(service._memo) <= 4
