"""Shared spill tier under concurrent worker processes.

The pooled topology's cluster-wide cache rests on one claim: the
:class:`~repro.store.TrialStore` directory can be appended to and read
by multiple *processes* at once — ``fcntl``-locked appends, torn-tail
healing, tail refresh on read — so an assignment computed by worker A
is a cache hit for worker B.  These tests pin that claim with real
spawned workers sharing one ``cache_dir``.
"""

from __future__ import annotations

import json

import pytest

from repro.service import WorkerPool
from repro.store import TrialStore

from .conftest import chain_request


def body_doc(i: int) -> bytes:
    return json.dumps(
        chain_request(wcets=(10 + i, 20 + 2 * i, 15 + i), deadline=200.0 + i)
    ).encode()


def reply(future) -> dict:
    return json.loads(future.result(timeout=60.0))


@pytest.fixture
def shared_dir(tmp_path):
    return tmp_path / "spill"


class TestSharedSpillAcrossWorkers:
    def test_worker_a_result_is_cache_hit_for_worker_b(self, shared_dir):
        """Two separate worker processes, one spill directory."""
        doc = body_doc(0)
        with WorkerPool(1, cache_dir=shared_dir) as pool_a:
            pool_a.start(timeout=120.0)
            first = reply(pool_a.submit(doc))
            assert first["cached"] is False
        # A brand-new process (fresh LRU, same directory) must serve
        # the same request from the spill tier on its very first try.
        with WorkerPool(1, cache_dir=shared_dir) as pool_b:
            pool_b.start(timeout=120.0)
            second = reply(pool_b.submit(doc))
            assert second["cached"] is True
            assert second["slices"] == first["slices"]
            assert second["digest"] == first["digest"]
            snapshots = pool_b.metrics_snapshots()
        assert len(snapshots) == 1
        store = snapshots[0]["store"]
        assert store["hits"] >= 1

    def test_concurrent_appends_leave_no_torn_records(self, shared_dir):
        """Disjoint workloads written from two live pools verify clean."""
        with WorkerPool(1, cache_dir=shared_dir) as pool_a, WorkerPool(
            1, cache_dir=shared_dir
        ) as pool_b:
            pool_a.start(timeout=120.0)
            pool_b.start(timeout=120.0)
            futures = []
            for i in range(6):
                futures.append(pool_a.submit(body_doc(2 * i)))
                futures.append(pool_b.submit(body_doc(2 * i + 1)))
            digests = set()
            for future in futures:
                result = json.loads(future.result(timeout=120.0))
                digests.add(result["digest"])
            assert len(digests) == 12
        report = TrialStore(shared_dir).verify()
        assert report["torn"] == 0
        assert report["invalid"] == 0
        assert report["records"] >= 12

    def test_cross_pool_live_hit(self, shared_dir):
        """B sees A's append while both pools are still running."""
        with WorkerPool(1, cache_dir=shared_dir) as pool_a, WorkerPool(
            1, cache_dir=shared_dir
        ) as pool_b:
            pool_a.start(timeout=120.0)
            pool_b.start(timeout=120.0)
            doc = body_doc(99)
            first = reply(pool_a.submit(doc))
            assert first["cached"] is False
            second = reply(pool_b.submit(doc))
            assert second["cached"] is True
            assert json.dumps(second["slices"], sort_keys=True) == json.dumps(
                first["slices"], sort_keys=True
            )
