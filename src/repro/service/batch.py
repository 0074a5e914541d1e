"""Micro-batching queue: coalesce concurrent requests into worker batches.

Mirrors the coarse-grained fan-out of :mod:`repro.experiments.runner`
at request granularity: the unit handed to the worker pool is a *batch*
of items processed by a simple serial inner loop, so pool bookkeeping
is amortized over the batch and the per-item code path stays trivial.

A collector thread drains the submission queue.  The first item opens a
batch; the batch closes when it reaches ``max_batch`` items or when
``max_wait`` seconds have passed since it opened, whichever comes
first.  Under light load a batch is a single item dispatched after at
most ``max_wait``; under a burst, batches fill instantly and the added
latency is zero.  Each closed batch becomes one task on a
:class:`~concurrent.futures.ThreadPoolExecutor`, and every submitted
item resolves through its own :class:`~concurrent.futures.Future` —
failures are per item, never per batch.

Concurrency contract:

* :meth:`MicroBatcher.submit` and :meth:`MicroBatcher.close` serialize
  on one lock, so an accepted item is always enqueued *before* the stop
  sentinel — no submission can be stranded behind it with a future
  that never resolves.
* ``max_queue`` bounds the number of accepted-but-unresolved items;
  overflow raises :class:`~repro.errors.ServiceOverloadError`
  (backpressure) instead of growing an unbounded backlog.
* ``close(timeout=...)`` is the graceful drain: it waits up to
  *timeout* seconds for outstanding futures, then fails the stragglers
  instead of hanging the caller.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor, wait
from typing import Callable, Generic, TypeVar

from ..errors import ServiceOverloadError, ValidationError

__all__ = ["MicroBatcher"]

T = TypeVar("T")
R = TypeVar("R")


class _Stop:
    """Queue sentinel that shuts the collector down."""


def _resolve(future: Future, *, result=None, error: BaseException | None = None) -> None:
    """Resolve *future*, tolerating a racing resolution.

    During a timed drain the closer may fail a future the pool is still
    working on; whichever side loses the race hits ``InvalidStateError``
    and must treat it as "already settled", not crash a worker thread.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class MicroBatcher(Generic[T, R]):
    """Coalesce submitted items into batches executed on a thread pool.

    Parameters
    ----------
    handler:
        Per-item callable; a batch is processed by calling it once per
        item in submission order (the coarse-grained unit's serial
        inner loop).  An exception fails only that item's future.
    max_batch:
        Largest batch handed to the pool at once.
    max_wait:
        Seconds a batch may wait for more items before dispatching.
    workers:
        Pool threads executing closed batches (default 1 keeps strict
        submission order; raise it to overlap batches).
    max_queue:
        Bound on accepted-but-unresolved items; ``None`` (default)
        means unbounded.  When the bound is reached :meth:`submit`
        raises :class:`~repro.errors.ServiceOverloadError`.
    on_batch:
        Optional observer called with each batch's size just before it
        is dispatched — the metrics hook.
    """

    def __init__(
        self,
        handler: Callable[[T], R],
        *,
        max_batch: int = 8,
        max_wait: float = 0.002,
        workers: int = 1,
        max_queue: int | None = None,
        on_batch: Callable[[int], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be at least 1, got {max_batch}"
            )
        if max_wait < 0.0:
            raise ValidationError(
                f"max_wait must be non-negative, got {max_wait:g}"
            )
        if workers < 1:
            raise ValidationError(f"workers must be at least 1, got {workers}")
        if max_queue is not None and max_queue < 1:
            raise ValidationError(
                f"max_queue must be at least 1 (or None), got {max_queue}"
            )
        self._handler = handler
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_queue = max_queue
        self._on_batch = on_batch
        self._queue: queue.Queue = queue.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-batch"
        )
        # One lock orders submit() against close(): the closed flag, the
        # outstanding set and the queue puts all mutate under it, so an
        # accepted item is enqueued strictly before the _Stop sentinel.
        self._lock = threading.Lock()
        self._closed = False
        self._outstanding: "set[Future[R]]" = set()
        self._collector = threading.Thread(
            target=self._collect, name="repro-batch-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Accepted items not yet resolved (the backpressure measure)."""
        with self._lock:
            return len(self._outstanding)

    def submit(self, item: T) -> "Future[R]":
        """Enqueue *item*; the returned future resolves to its result.

        Raises ``RuntimeError`` after :meth:`close` and
        :class:`~repro.errors.ServiceOverloadError` when ``max_queue``
        items are already in flight.
        """
        future: Future[R] = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            if (
                self.max_queue is not None
                and len(self._outstanding) >= self.max_queue
            ):
                raise ServiceOverloadError(
                    f"micro-batcher queue is full "
                    f"({self.max_queue} items in flight)"
                )
            self._outstanding.add(future)
            self._queue.put((item, future))
        future.add_done_callback(self._forget)
        return future

    def _forget(self, future: "Future[R]") -> None:
        with self._lock:
            self._outstanding.discard(future)

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting work and drain; idempotent.

        With ``timeout=None`` (the default) the drain is unconditional:
        every outstanding item is processed before this returns.  With a
        timeout, outstanding futures get up to *timeout* seconds to
        resolve; whatever is still pending afterwards is cancelled or
        failed with ``RuntimeError`` — callers blocked on ``.result()``
        are released, never left hanging.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            if first:
                # Both puts happen under the lock, so the sentinel is
                # strictly after every accepted submission.
                self._queue.put(_Stop)
            outstanding = list(self._outstanding)
        if timeout is None:
            self._collector.join()
            self._pool.shutdown(wait=True)
            return
        deadline = time.monotonic() + timeout
        self._collector.join(timeout)
        wait(outstanding, timeout=max(0.0, deadline - time.monotonic()))
        self._pool.shutdown(wait=False)
        for future in outstanding:
            if future.cancel() or future.done():
                continue
            _resolve(
                future,
                error=RuntimeError(
                    "MicroBatcher drain timed out; item abandoned"
                ),
            )

    def __enter__(self) -> "MicroBatcher[T, R]":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            head = self._queue.get()
            if head is _Stop:
                return
            batch = [head]
            deadline = time.monotonic() + self.max_wait
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _Stop:
                    stop = True
                    break
                batch.append(item)
            if self._on_batch is not None:
                try:
                    self._on_batch(len(batch))
                except Exception:  # observers must never kill the loop
                    pass
            try:
                self._pool.submit(self._run_batch, batch)
            except RuntimeError as exc:
                # A timed drain shut the pool down mid-collection; fail
                # the batch here rather than stranding its futures.
                for _, future in batch:
                    if not future.cancel():
                        _resolve(future, error=exc)
                return
            if stop:
                return

    def _run_batch(
        self, batch: "list[tuple[T, Future[R]]]"
    ) -> None:
        for item, future in batch:
            try:
                if not future.set_running_or_notify_cancel():
                    continue
            except InvalidStateError:
                continue  # a timed drain already failed this future
            try:
                _resolve(future, result=self._handler(item))
            except BaseException as exc:  # noqa: BLE001 - routed to caller
                _resolve(future, error=exc)
