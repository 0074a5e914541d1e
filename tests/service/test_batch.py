"""Unit tests for the micro-batching queue."""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.errors import ServiceOverloadError, ValidationError
from repro.service import MicroBatcher


class TestBatching:
    def test_single_item_round_trip(self):
        with MicroBatcher(lambda x: x * 2, max_wait=0.01) as batcher:
            assert batcher.submit(21).result(timeout=5) == 42

    def test_results_map_to_their_items(self):
        with MicroBatcher(lambda x: x + 1, max_batch=4, max_wait=0.05) as b:
            futures = [b.submit(i) for i in range(10)]
            assert [f.result(timeout=5) for f in futures] == list(range(1, 11))

    def test_burst_coalesces_into_one_batch(self):
        sizes: list[int] = []
        gate = threading.Event()

        def handler(x):
            gate.wait(5)
            return x

        batcher = MicroBatcher(
            handler, max_batch=4, max_wait=0.5, on_batch=sizes.append
        )
        try:
            # Four near-simultaneous submissions, well inside max_wait.
            futures = [batcher.submit(i) for i in range(4)]
            gate.set()
            for f in futures:
                f.result(timeout=5)
            assert sizes == [4]
        finally:
            batcher.close()

    def test_batch_closes_at_max_batch(self):
        sizes: list[int] = []
        batcher = MicroBatcher(
            lambda x: x, max_batch=2, max_wait=10.0, on_batch=sizes.append
        )
        try:
            futures = [batcher.submit(i) for i in range(4)]
            for f in futures:
                f.result(timeout=5)
            # max_wait is huge, so only the size cap can close batches.
            assert sizes == [2, 2]
        finally:
            batcher.close()

    def test_exception_fails_only_that_item(self):
        def handler(x):
            if x == 2:
                raise ValueError("boom")
            return x

        with MicroBatcher(handler, max_batch=4, max_wait=0.05) as batcher:
            futures = [batcher.submit(i) for i in range(4)]
            assert futures[0].result(timeout=5) == 0
            with pytest.raises(ValueError, match="boom"):
                futures[2].result(timeout=5)
            assert futures[3].result(timeout=5) == 3

    def test_observer_errors_are_swallowed(self):
        def bad_observer(size):
            raise RuntimeError("observer bug")

        with MicroBatcher(
            lambda x: x, max_wait=0.01, on_batch=bad_observer
        ) as batcher:
            assert batcher.submit(7).result(timeout=5) == 7


class TestLifecycle:
    def test_close_drains_outstanding_work(self):
        batcher = MicroBatcher(lambda x: x, max_batch=2, max_wait=0.01)
        futures = [batcher.submit(i) for i in range(6)]
        batcher.close()
        assert [f.result(timeout=1) for f in futures] == list(range(6))

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda x: x)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda x: x)
        batcher.close()
        batcher.close()

    def test_parallel_workers_overlap_batches(self):
        started = threading.Barrier(2, timeout=5)

        def handler(x):
            started.wait()  # both workers must be in flight at once
            return x

        batcher = MicroBatcher(handler, max_batch=1, max_wait=0.0, workers=2)
        try:
            futures = [batcher.submit(i) for i in range(2)]
            assert sorted(f.result(timeout=5) for f in futures) == [0, 1]
        finally:
            batcher.close()


class TestCloseRace:
    def test_submit_close_race_never_strands_a_future(self):
        """Submitters racing close(): every accepted future resolves.

        Regression for the unsynchronized ``_closed`` check: an item
        enqueued concurrently with ``close()`` could land *behind* the
        stop sentinel and its future never resolved, hanging the caller
        forever.  Repeated rounds make the interleaving window real.
        """
        for _ in range(15):
            batcher = MicroBatcher(
                lambda x: x, max_batch=4, max_wait=0.0005, workers=2
            )
            futures: list = []
            futures_lock = threading.Lock()

            def pound():
                while True:
                    try:
                        future = batcher.submit(1)
                    except RuntimeError:
                        return  # closed — acceptable, nothing accepted
                    with futures_lock:
                        futures.append(future)

            threads = [threading.Thread(target=pound) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.005)
            batcher.close()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
            # Accepted before close ⇒ enqueued before the sentinel ⇒
            # the full drain must resolve it.  None may hang.
            for future in futures:
                assert future.result(timeout=5) == 1

    def test_close_timeout_releases_stuck_callers(self):
        release = threading.Event()

        def handler(x):
            release.wait(30)
            return x

        batcher = MicroBatcher(handler, max_batch=1, max_wait=0.0, workers=1)
        stuck = batcher.submit(1)    # running, blocked in the handler
        queued = batcher.submit(2)   # waiting behind it in the pool
        start = time.monotonic()
        batcher.close(timeout=0.2)
        assert time.monotonic() - start < 5.0
        # Neither caller hangs: the running item is failed, the queued
        # one is cancelled (either way .result() returns promptly).
        with pytest.raises((RuntimeError, CancelledError)):
            stuck.result(timeout=1)
        with pytest.raises((RuntimeError, CancelledError)):
            queued.result(timeout=1)
        release.set()  # let the worker thread exit cleanly


class TestBackpressure:
    def test_max_queue_rejects_overflow_then_recovers(self):
        gate = threading.Event()

        def handler(x):
            gate.wait(10)
            return x

        batcher = MicroBatcher(
            handler, max_batch=1, max_wait=0.0, workers=1, max_queue=2
        )
        try:
            first = batcher.submit(1)
            second = batcher.submit(2)
            with pytest.raises(ServiceOverloadError):
                batcher.submit(3)
            gate.set()
            assert first.result(timeout=5) == 1
            assert second.result(timeout=5) == 2
            # Capacity freed: submissions are accepted again.
            assert batcher.submit(4).result(timeout=5) == 4
        finally:
            gate.set()
            batcher.close()

    def test_depth_tracks_in_flight_items(self):
        gate = threading.Event()

        def handler(x):
            gate.wait(10)
            return x

        batcher = MicroBatcher(handler, max_batch=1, max_wait=0.0, workers=1)
        try:
            assert batcher.depth == 0
            futures = [batcher.submit(i) for i in range(3)]
            assert batcher.depth == 3
            gate.set()
            for f in futures:
                f.result(timeout=5)
            assert batcher.depth == 0
        finally:
            gate.set()
            batcher.close()


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValidationError):
            MicroBatcher(lambda x: x, max_batch=0)
        with pytest.raises(ValidationError):
            MicroBatcher(lambda x: x, max_wait=-1.0)
        with pytest.raises(ValidationError):
            MicroBatcher(lambda x: x, workers=0)
        with pytest.raises(ValidationError):
            MicroBatcher(lambda x: x, max_queue=0)
