"""Pre-forked assignment worker pool behind the asyncio front end.

One :class:`WorkerPool` owns N worker *processes*, each running a full
:class:`~repro.service.server.DeadlineAssignmentService` (LRU +
optional persistent spill tier) on a few request threads, each of which
decodes, computes and encodes the body it was handed.  The pool is how
``repro serve --workers N`` escapes the single-interpreter GIL ceiling:
the front end speaks and coalesces HTTP, workers do the rest.

Topology and wire protocol
--------------------------

Each worker gets one duplex :func:`multiprocessing.Pipe`.  Messages are
plain picklable tuples, request/reply matched by a monotonically
increasing request id:

* ``("assign", rid, body)`` → ``("ok", rid, reply)`` or
  ``("err", rid, status, doc, kind)`` — the raw request body in, and
  out either the 200 reply bytes of
  :meth:`~repro.service.server.DeadlineAssignmentService.assign_body`
  or its failure as :func:`~repro.service.server.assign_error` maps
  it, so the front end writes byte-identical replies without touching
  JSON.
* ``("metrics", rid)`` → ``("ok", rid, snapshot_doc)`` — the worker's
  :meth:`~repro.service.metrics.ServiceMetrics.snapshot`, merged into
  one exposition by :mod:`repro.service.agg`.
* ``("ping", rid)`` → ``("ok", rid, {"pid": ...})`` — the readiness
  probe :meth:`WorkerPool.start` blocks on.
* ``("stop", timeout)`` — the worker waits, up to *timeout* seconds,
  for every request it has received, then exits.

Workers are started with the ``spawn`` context (same choice as the
sweep fabric): no inherited locks mid-acquire, no shared mutable
interpreter state, and the child imports :mod:`repro` cleanly.

Sharing and backpressure
------------------------

When ``cache_dir`` is set every worker opens the *same*
:class:`~repro.store.TrialStore` directory.  Store appends are
``fcntl``-locked with torn-tail healing and reads refresh the shard
tail from disk, so an assignment computed (and spilled) by worker A is
a cache *hit* for worker B — the cluster-wide cache tier the front
end's digest routing does not need to know about.

``max_queue`` bounds the per-worker number of dispatched-but-unanswered
requests.  :meth:`WorkerPool.submit` always picks the least-loaded live
worker; when even that worker is at the bound the pool raises
:class:`~repro.errors.ServiceOverloadError` *synchronously*, which the
front end maps to the standard 429 + ``Retry-After`` shed path without
ever queueing the request.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future, InvalidStateError, wait
from pathlib import Path

from ..errors import ServiceOverloadError, ValidationError

__all__ = ["RemoteAssignError", "WorkerPool", "default_workers"]


def default_workers() -> int:
    """The ``--workers`` default: ``min(cpu_count, 4)``.

    On a single-CPU host this is 1, which serves from the front end's
    own process — pre-forking cannot beat one core.
    """
    return min(os.cpu_count() or 1, 4)


class RemoteAssignError(Exception):
    """An assignment failed inside a worker process.

    Carries the worker's :func:`~repro.service.server.assign_error`
    mapping — HTTP status, reply document and ``errors`` kind — so the
    front end answers exactly what it answers for an in-process
    service's failure.
    """

    def __init__(self, status: int, doc: dict[str, str], kind: str) -> None:
        super().__init__(doc["error"])
        self.status = status
        self.doc = doc
        self.kind = kind


#: Request threads per worker process (and of the in-process backend).
_REQUEST_THREADS = 4


def _pool_worker_main(conn, config: dict) -> None:
    """Worker process entry point: serve pipe requests until ``stop``.

    Runs one :class:`DeadlineAssignmentService` and a small thread pool,
    so concurrent ``assign`` dispatches coalesce in the service's
    single-flight layer exactly as they would in the in-process
    backend.  Replies are serialized by a send lock (the pipe is the only
    shared output).  On ``stop`` the worker waits, bounded by the drain
    timeout, for every request it has received, then exits via
    ``os._exit`` so a straggler thread can never wedge shutdown.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .server import DeadlineAssignmentService, assign_error

    service = DeadlineAssignmentService(
        cache_size=config.get("cache_size", 1024),
        max_queue=config.get("max_queue"),
        cache_dir=config.get("cache_dir"),
    )
    compute_delay = float(config.get("compute_delay", 0.0) or 0.0)
    send_lock = threading.Lock()
    pool = ThreadPoolExecutor(
        max_workers=_REQUEST_THREADS, thread_name_prefix="repro-pool-worker"
    )
    # Futures of received requests not yet answered: the drain's scope.
    received: set[Future] = set()
    received_lock = threading.Lock()

    def answered(future: Future) -> None:
        with received_lock:
            received.discard(future)

    def send(reply: tuple) -> None:
        with send_lock:
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                pass  # parent is gone; nothing left to answer to

    def do_assign(rid: int, body: bytes) -> None:
        try:
            if compute_delay > 0.0:
                time.sleep(compute_delay)
            send(("ok", rid, service.assign_body(body)))
        except BaseException as exc:  # noqa: BLE001 - worker must survive
            send(("err", rid, *assign_error(exc)))

    drain_timeout: float | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent died; drain and exit
            op = msg[0]
            if op == "assign":
                future = pool.submit(do_assign, msg[1], msg[2])
                with received_lock:
                    received.add(future)
                future.add_done_callback(answered)
            elif op == "metrics":
                send(("ok", msg[1], service.metrics.snapshot()))
            elif op == "ping":
                send(("ok", msg[1], {"pid": os.getpid()}))
            elif op == "stop":
                drain_timeout = msg[1] if len(msg) > 1 else None
                break
    finally:
        with received_lock:
            unanswered = list(received)
        wait(unanswered, timeout=drain_timeout)
        pool.shutdown(wait=False)
        try:
            # Its computations ran inside the requests waited for above.
            service.close(timeout=0.0)
        except Exception:  # noqa: BLE001 - exiting anyway
            pass
        try:
            conn.close()
        except OSError:
            pass
        # A compute thread stuck past the bounded drain must not block
        # interpreter teardown; the parent already failed its future.
        os._exit(0)


class _WorkerHandle:
    """Parent-side state for one worker process."""

    def __init__(self, index: int, proc, conn) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()  # guards pending + alive
        self.pending: dict[int, Future] = {}
        self.alive = True
        self.reader: threading.Thread | None = None

    @property
    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)

    def send(self, message: tuple) -> None:
        with self.send_lock:
            self.conn.send(message)

    def register(self, rid: int) -> Future:
        future: Future = Future()
        with self.lock:
            if not self.alive:
                raise RuntimeError(f"worker {self.index} is not running")
            self.pending[rid] = future
        return future

    def read_loop(self) -> None:
        """Resolve pending futures from worker replies until the pipe ends.

        When the pipe ends (the worker exited or crashed) or a frame
        does not decode, every still-pending future is failed with an
        error saying which — a dead worker must never strand a waiting
        request.  This thread alone closes the connection, as it
        leaves: a ``recv`` in progress holds the fd *number*, so a
        close from another thread would let the next pipe reuse that
        number under it.
        """
        failure = "exited with requests in flight"
        try:
            while True:
                try:
                    frame = self.conn.recv_bytes()
                except (EOFError, OSError):
                    break  # the pipe ended or was closed
                try:
                    msg = pickle.loads(frame)
                except Exception as exc:  # noqa: BLE001 - any bad frame
                    failure = f"sent an undecodable reply ({exc!r})"
                    break
                future = None
                with self.lock:
                    future = self.pending.pop(msg[1], None)
                if future is None:
                    continue  # drained/abandoned request; reply is stale
                try:
                    if msg[0] == "ok":
                        future.set_result(msg[2])
                    else:
                        future.set_exception(RemoteAssignError(*msg[2:]))
                except Exception:  # noqa: BLE001 - a timed drain beat us
                    pass
        finally:
            with self.lock:
                self.alive = False
                stranded = list(self.pending.values())
                self.pending.clear()
            with self.send_lock:
                self.conn.close()
            for future in stranded:
                # Failed, not cancelled: ``concurrent.futures.wait`` never
                # sees a plain ``cancel()``, so a drain would sit out its
                # whole timeout on a request that is already lost.
                try:
                    future.set_exception(
                        RuntimeError(
                            f"assignment worker {self.index} {failure}"
                        )
                    )
                except InvalidStateError:
                    pass  # a timed drain resolved it first


class WorkerPool:
    """N pre-forked assignment workers with least-loaded dispatch.

    Parameters mirror :class:`DeadlineAssignmentService` where they
    configure the per-worker service; pool-level knobs:

    workers:
        Number of worker processes (≥ 1).
    max_queue:
        Per-worker bound on dispatched-but-unanswered requests (≥ 1);
        ``None`` means unbounded.  Overflow raises
        :class:`~repro.errors.ServiceOverloadError` from
        :meth:`submit`.
    compute_delay:
        Test hook: seconds each worker sleeps before computing — makes
        saturation and drain behaviour deterministic in tests.
    """

    def __init__(
        self,
        workers: int,
        *,
        cache_size: int = 1024,
        max_queue: int | None = None,
        cache_dir: str | Path | None = None,
        compute_delay: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if max_queue is not None and max_queue < 1:
            raise ValidationError(
                f"max_queue must be at least 1 (or None), got {max_queue}"
            )
        self.max_queue = max_queue
        self._config = {
            "cache_size": cache_size,
            # The worker-internal bound stays off: the pool enforces
            # the bound at dispatch, before a request crosses the pipe,
            # so a shed request costs no worker work at all.
            "max_queue": None,
            "cache_dir": None if cache_dir is None else str(cache_dir),
            "compute_delay": compute_delay,
        }
        self._workers_requested = workers
        self._handles: list[_WorkerHandle] = []
        self._rid = 0
        self._rid_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Spawn the workers and block until each answers a ping.

        The readiness gate matters on slow hosts: ``spawn`` re-imports
        :mod:`repro` in every child, and the front end must not accept
        traffic that would race worker startup.
        """
        ctx = multiprocessing.get_context("spawn")
        for index in range(self._workers_requested):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(child_conn, self._config),
                name=f"repro-assign-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            handle = _WorkerHandle(index, proc, parent_conn)
            handle.reader = threading.Thread(
                target=handle.read_loop,
                name=f"repro-pool-reader-{index}",
                daemon=True,
            )
            handle.reader.start()
            self._handles.append(handle)
        deadline = time.monotonic() + timeout
        pings = [
            self._request(handle, ("ping",)) for handle in self._handles
        ]
        for index, future in enumerate(pings):
            remaining = deadline - time.monotonic()
            try:
                future.result(timeout=max(0.0, remaining))
            except Exception as exc:
                self.close(timeout=1.0)
                raise RuntimeError(
                    f"assignment worker {index} failed to start: {exc}"
                ) from exc

    @property
    def workers(self) -> int:
        """Live worker count."""
        return sum(1 for handle in self._handles if handle.alive)

    def _next_rid(self) -> int:
        with self._rid_lock:
            self._rid += 1
            return self._rid

    def _request(self, handle: _WorkerHandle, op: tuple) -> Future:
        rid = self._next_rid()
        future = handle.register(rid)
        try:
            handle.send(op[:1] + (rid,) + op[1:])
        except (BrokenPipeError, OSError) as exc:
            with handle.lock:
                handle.pending.pop(rid, None)
                handle.alive = False
            raise RuntimeError(
                f"worker {handle.index} is not reachable: {exc}"
            ) from exc
        return future

    # ------------------------------------------------------------------
    def submit(self, body: bytes) -> Future:
        """Dispatch one raw ``/assign`` body; returns its future.

        The future resolves to the 200 reply bytes, or fails with
        :class:`RemoteAssignError`.  Picks the least-loaded live
        worker.  Raises
        :class:`~repro.errors.ServiceOverloadError` when every live
        worker already has ``max_queue`` requests in flight, and
        ``RuntimeError`` when no worker is alive at all.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed WorkerPool")
        live = [handle for handle in self._handles if handle.alive]
        if not live:
            raise RuntimeError("no assignment workers are running")
        handle = min(live, key=lambda h: h.inflight)
        if (
            self.max_queue is not None
            and handle.inflight >= self.max_queue
        ):
            raise ServiceOverloadError(
                f"worker pool is full ({self.max_queue} requests in "
                f"flight on each of {len(live)} workers)"
            )
        return self._request(handle, ("assign", body))

    def metrics_snapshots(self, timeout: float = 5.0) -> list[dict]:
        """One metrics snapshot per live worker (dead workers skipped).

        A worker that fails to answer within *timeout* is skipped too:
        a scrape must degrade, not hang the front end.
        """
        futures = []
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                futures.append(self._request(handle, ("metrics",)))
            except RuntimeError:
                continue
        wait(futures, timeout=timeout)
        snapshots = []
        for future in futures:
            if future.done() and future.exception() is None:
                snapshots.append(future.result())
        return snapshots

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Stop every worker; bounded when *timeout* is given.

        Sends ``stop`` (each worker waits for the requests it has
        received, bounded by the same timeout), fails whatever futures
        remain after the wait, then joins — escalating to
        ``terminate``/``kill`` so the call returns even if a worker
        wedged.  Each worker's exit ends its reader, which closes the
        connection as it leaves; the reader is joined here, and one
        that outlives the budget closes it whenever it does leave.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for handle in self._handles:
            try:
                handle.send(("stop", timeout))
            except (BrokenPipeError, OSError):
                pass
        outstanding = []
        for handle in self._handles:
            with handle.lock:
                outstanding.extend(handle.pending.values())
        if outstanding:
            budget = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            wait(outstanding, timeout=budget)
            for future in outstanding:
                if future.cancel() or future.done():
                    continue
                try:
                    future.set_exception(
                        RuntimeError(
                            "worker pool drain timed out; "
                            "request abandoned"
                        )
                    )
                except Exception:  # noqa: BLE001 - racing resolution
                    pass
        for handle in self._handles:
            join_budget = (
                5.0
                if deadline is None
                else max(0.1, deadline - time.monotonic())
            )
            handle.proc.join(join_budget)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(1.0)
            if handle.proc.is_alive():  # pragma: no cover - last resort
                handle.proc.kill()
                handle.proc.join(1.0)
            if handle.reader is not None:
                handle.reader.join(
                    5.0
                    if deadline is None
                    else max(0.1, deadline - time.monotonic())
                )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(timeout=5.0)
