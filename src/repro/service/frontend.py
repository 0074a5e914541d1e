"""Asyncio HTTP front end of ``repro serve`` and ``repro sweep --serve``.

Every topology serves through it; only the backend differs::

    clients ──keep-alive HTTP──▶ PooledFrontend (1 asyncio thread)
                                   │  HTTP · single-flight · 429 shed
                                   │  /fabric/* · merged /metrics
            --workers 1            │            --workers N
    InProcessBackend ◀─────────────┴─────────────▶ WorkerPool
      memo hits on the loop;              ├──pipe──▶ assign worker 0 ─┐
      the rest on 4 request               ├──pipe──▶ assign worker 1 ─┤ shared
      threads                             └──pipe──▶ ...              ─┘ spill dir

The front end owns everything cheap and I/O-bound — accept, a
hand-rolled HTTP/1.1 keep-alive parser (stdlib only), backpressure and
the graceful drain — and hands raw ``/assign`` bodies to its backend
(``submit(body) -> Future[bytes]``): a request thread of the in-process
service, or the least-loaded worker process, where
:meth:`~repro.service.server.DeadlineAssignmentService.assign_body`
decodes, computes or recalls, and encodes; the reply bytes come back
as they go out.  An in-process backend also offers ``cached_reply``:
a repeated body whose encoded reply the service kept, and whose digest
its LRU holds in memory, is answered on the loop without a thread hop.
The event loop never decodes request JSON, computes, admits or reads
the spill store.

Single-flight moves *up* here: requests are coalesced by the SHA-256 of
their raw body bytes, so a duplicate burst costs one dispatch and one
computation no matter how many clients sent it.  Bodies
that could carry an ``admit`` key never coalesce — admission is
stateful (each submission advances a controller), so every admission
request must reach the service individually.  Body-hash coalescing is
strictly weaker than the service's canonical-digest single-flight,
which still catches textually different but canonically equal requests
that land on the same worker; requests split across workers are
instead caught by the shared spill tier as cross-process cache hits.

Metric accounting is split to keep the aggregated ``/metrics`` totals
identical to one service's exposition: the backend's services count
everything about requests they actually receive (cache hits/misses,
computed and failed assignments, latency); the front end counts the
HTTP layer (requests, errors, overload sheds, the sweep fabric's
counters) plus the requests that never reach a service — coalesced
followers and queue-full sheds — mirroring the bumps a service would
have made for them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time

from .agg import aggregate_metrics
from .metrics import ServiceMetrics
from .pool import RemoteAssignError, WorkerPool
from .server import (
    _NON_FINITE,
    BadJSONError,
    InProcessBackend,
    assign_error,
    checked_length,
    load_body,
)

__all__ = ["PooledFrontend"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_BYTES = 65536

#: Seconds the drain gives connections to finish once the backend has
#: closed (a reply still being written, a body still being read); then
#: they are aborted.
_WRITE_GRACE = 2.0


class PooledFrontend:
    """Async HTTP server bridging clients to an assignment backend.

    Runs its event loop on a private daemon thread so the CLI, tests
    and smoke scripts can drive it synchronously: :meth:`start` blocks
    until the socket is bound and the backend is ready (every pool
    worker answered a readiness ping); :meth:`close` is the graceful
    drain.

    Parameters
    ----------
    pool:
        The backend — a :class:`~repro.service.pool.WorkerPool`
        (``--workers N``) or an
        :class:`~repro.service.server.InProcessBackend`
        (``--workers 1``); the front end owns its lifecycle from
        :meth:`start` through :meth:`close`.
    host / port:
        Bind address (``port=0`` picks a free port; see ``address``).
    retry_after:
        ``Retry-After`` seconds advertised on 429 responses.

    Set :attr:`fabric` before :meth:`start` to mount a sweep-fabric
    endpoint (``handle(method, path, doc) -> (status, doc)``, see
    :mod:`repro.fabric`) on ``/fabric/*``; build it over
    :attr:`metrics` so its counters and queue gauges reach
    ``GET /metrics``.  Without one, ``/fabric/*`` answers 404.
    """

    def __init__(
        self,
        pool: WorkerPool | InProcessBackend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        retry_after: int = 1,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self.retry_after = retry_after
        self.metrics = ServiceMetrics()
        self.fabric = None
        self.address: tuple[str, int] | None = None
        # Backends holding the service in this process answer kept
        # memo hits on the loop; a pool's memos live in its workers.
        self._cached_reply = getattr(pool, "cached_reply", None)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._boot_error: BaseException | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        # Every connection's task and writer; the idle ones (waiting
        # for their next request) close at once when a drain starts.
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Start the backend, bind the socket, and serve in the background.

        Raises whatever the bind raised (``OSError`` for a taken port)
        or ``RuntimeError`` when a worker fails its readiness ping; on
        failure the backend is closed, so the caller holds no
        half-started topology.
        """
        try:
            self.pool.start(timeout=timeout)
        except BaseException:
            self.pool.close(timeout=1.0)
            raise
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop,
            args=(ready,),
            name="repro-frontend",
            daemon=True,
        )
        self._thread.start()
        ready.wait(timeout)
        if self._boot_error is not None:
            self._thread.join(5.0)
            self.pool.close(timeout=1.0)
            raise self._boot_error
        if self.address is None:
            self.close(timeout=1.0)
            raise RuntimeError("front end failed to bind within the timeout")

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]

        try:
            loop.run_until_complete(boot())
        except BaseException as exc:  # noqa: BLE001 - re-raised in start()
            self._boot_error = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def close(self, timeout: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight, stop backend.

        Connections waiting for their next request close at once; a
        request being read or answered finishes, and its reply carries
        ``Connection: close``.  Bounded by *timeout* when given —
        in-flight computations get up to that many seconds (the backend
        fails stragglers' futures, answered 500, so no blocked client
        connection can hang the drain).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is None or not loop.is_running():
            self.pool.close(timeout=timeout)
            return
        done = asyncio.run_coroutine_threadsafe(
            self._shutdown(timeout), loop
        )
        try:
            done.result(timeout=None if timeout is None else timeout + 15.0)
        except Exception:  # noqa: BLE001 - drain must not raise upward
            pass
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(10.0)

    async def _shutdown(self, timeout: float | None) -> None:
        # No wait_closed(): since Python 3.12 it also waits for every
        # open connection, idle keep-alive clients included.
        self._draining = True
        if self._server is not None:
            self._server.close()
        for task in self._idle:
            self._conns[task].close()  # EOF ends its wait for a request
        # Backend close blocks (thread or pipe joins), so it runs
        # off-loop; it fails any pending dispatch futures, which wakes
        # the connection tasks awaiting them — they answer 500 and
        # finish below.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.close, timeout)
        if self._conns:
            _, late = await asyncio.wait(
                list(self._conns), timeout=_WRITE_GRACE
            )
            # Aborted rather than cancelled, a connection task still
            # ends on its own (Python < 3.13 logs a cancelled one).
            for task in late:
                self._conns[task].transport.abort()
            await asyncio.gather(*late, return_exceptions=True)

    def __enter__(self) -> "PooledFrontend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(timeout=5.0)

    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._conns[task] = writer
        try:
            await self._serve_connection(task, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing to answer
        finally:
            self._idle.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                # Only now: a drain must still find (and may abort) a
                # connection flushing its last reply to a slow reader.
                del self._conns[task]

    async def _serve_connection(
        self,
        task: asyncio.Task,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not self._draining:
            self._idle.add(task)
            request_line = await reader.readline()
            self._idle.discard(task)
            if not request_line:
                return
            if len(request_line) > _MAX_REQUEST_LINE:
                await self._reply_and_close(
                    writer, 400, {"error": "request line too long"}
                )
                return
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3:
                await self._reply_and_close(
                    writer, 400, {"error": "malformed request line"}
                )
                return
            method, path, version = parts
            headers: dict[str, str] = {}
            header_bytes = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                header_bytes += len(line)
                if header_bytes > _MAX_HEADER_BYTES:
                    await self._reply_and_close(
                        writer, 431, {"error": "request headers too large"}
                    )
                    return
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if "chunked" in headers.get("transfer-encoding", "").lower():
                await self._reply_and_close(
                    writer,
                    400,
                    {"error": "chunked transfer encoding is not supported"},
                )
                return
            length, refusal = checked_length(headers.get("content-length", ""))
            if refusal is not None:
                await self._reply_and_close(writer, *refusal)
                return
            if (
                version == "HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"
            ):
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = await reader.readexactly(length) if length else b""
            status, payload, content_type, extra = await self._dispatch(
                method, path, body
            )
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
                and not self._draining
            )
            self._write_response(
                writer, status, payload, content_type, extra, keep=keep_alive
            )
            await writer.drain()
            if not keep_alive:
                return

    async def _reply_and_close(
        self, writer: asyncio.StreamWriter, status: int, doc: dict
    ) -> None:
        """Answer a protocol error and drop the connection.

        Parse-level failures leave the stream position unknown, so
        keep-alive is never safe afterwards.
        """
        status, body, content_type, extra = self._json_response(
            status, doc, endpoint="unknown"
        )
        self._write_response(
            writer, status, body, content_type, extra, keep=False
        )
        await writer.drain()

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra: dict[str, str],
        *,
        keep: bool,
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        if not keep:
            head.append("Connection: close")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )

    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        if method == "GET" and path == "/healthz":
            return self._json_response(
                200, {"status": "ok"}, endpoint="healthz"
            )
        if method == "GET" and path == "/metrics":
            return await self._metrics_route()
        if path.startswith("/fabric/"):
            return await self._fabric_route(method, path, body)
        if method == "POST" and path == "/assign":
            return await self._assign_route(body)
        if method not in ("GET", "POST", "HEAD"):
            return self._json_response(
                501,
                {"error": f"unsupported method {method!r}"},
                endpoint="unknown",
            )
        return self._json_response(
            404, {"error": f"unknown path {path!r}"}, endpoint="unknown"
        )

    async def _metrics_route(self) -> tuple[int, bytes, str, dict[str, str]]:
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, self._render_metrics)
        self.metrics.requests.inc(endpoint="metrics", status="200")
        return 200, payload, "text/plain; version=0.0.4", {}

    def _render_metrics(self) -> bytes:
        """The merged exposition (off-loop: snapshots, sort, render)."""
        snapshots = self.pool.metrics_snapshots()
        return aggregate_metrics(snapshots, base=self.metrics).render().encode()

    async def _fabric_route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Serve ``/fabric/*`` from the mounted endpoint, off the loop.

        Failures map like ``/assign``'s (:func:`assign_error`): a body
        that is not JSON or a :class:`~repro.errors.ReproError` is 400,
        anything else 500.
        """
        if self.fabric is None:
            return self._json_response(
                404,
                {"error": "no sweep fabric mounted on this server"},
                endpoint="fabric",
            )
        loop = asyncio.get_running_loop()
        try:
            status, payload = await loop.run_in_executor(
                None, self._call_fabric, method, path, body
            )
        except Exception as exc:  # noqa: BLE001 - every failure is a reply
            status, doc, kind = assign_error(exc)
            self.metrics.errors.inc(kind=kind)
            return self._json_response(status, doc, endpoint="fabric")
        return self._response(status, payload, endpoint="fabric")

    def _call_fabric(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        """Decode, handle and encode one fabric request (blocking)."""
        doc = load_body(body) if method == "POST" else None
        status, reply = self.fabric.handle(method, path, doc)
        try:
            return status, json.dumps(reply, allow_nan=False).encode()
        except ValueError:
            self.metrics.errors.inc(kind="non_finite_json")
            return 500, json.dumps({"error": _NON_FINITE}).encode()

    async def _assign_route(
        self, body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        if self._cached_reply is not None:
            reply = self._cached_reply(body)
            if reply is not None:
                return self._response(200, reply, endpoint="assign")
        digest = hashlib.sha256(body).hexdigest()
        # Admission mutates controller state per submission, so a body
        # that could carry an admit key must reach the service on its own.
        # JSON keys may spell letters as \u escapes: only bodies with
        # neither a literal "admit" nor any \u escape coalesce.
        coalesce = b'"admit"' not in body and b"\\u" not in body
        leader = self._inflight.get(digest) if coalesce else None
        if leader is not None:
            return await self._follow(leader)
        return await self._lead(digest if coalesce else None, body)

    async def _follow(
        self, leader: asyncio.Future
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Wait on an identical in-flight request instead of dispatching.

        Books exactly the counters a service would have booked for a
        coalesced follower: a cache miss, a
        single-flight wait, a ``coalesced`` (or ``failed``) assignment,
        and a latency observation — none for a body that is not JSON,
        which never reaches the assignment path.
        """
        start = time.perf_counter()
        try:
            reply = await asyncio.shield(leader)
        except BaseException as exc:  # noqa: BLE001 - mapped per kind
            return self._assign_failed(exc, start, follower=True)
        self._book_miss(start, "coalesced", follower=True)
        return self._response(200, reply, endpoint="assign")

    async def _lead(
        self, digest: str | None, body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        start = time.perf_counter()
        flight: asyncio.Future | None = None
        if digest is not None:
            flight = asyncio.get_running_loop().create_future()
            self._inflight[digest] = flight

        def settle(exc: BaseException | None, reply: bytes = b"") -> None:
            if digest is not None:
                self._inflight.pop(digest, None)
            if flight is None:
                return
            if exc is None:
                flight.set_result(reply)
            else:
                flight.set_exception(exc)
                flight.exception()  # consumed here; followers optional

        try:
            pool_future = self.pool.submit(body)
        except BaseException as exc:  # noqa: BLE001 - shed/refused path
            # Never dispatched: a body that is not JSON still gets the
            # service's 400, and any other body the failure accounting
            # a service books for it.
            try:
                load_body(body)
            except BadJSONError as bad:
                exc = bad
            settle(exc)
            return self._assign_failed(exc, start)
        try:
            reply = await asyncio.wrap_future(pool_future)
        except BaseException as exc:  # noqa: BLE001 - backend-side error
            # The backend's service booked the assign-side counters.
            settle(exc)
            return self._assign_failed(exc)
        settle(None, reply)
        return self._response(200, reply, endpoint="assign")

    def _book_miss(
        self, start: float, source: str, *, follower: bool = False
    ) -> None:
        """The assign-side counters of a request no service served."""
        self.metrics.cache_misses.inc()
        if follower:
            self.metrics.singleflight_waits.inc()
        self.metrics.assignments.inc(source=source)
        self.metrics.assign_latency.observe(time.perf_counter() - start)

    def _assign_failed(
        self,
        exc: BaseException,
        start: float | None = None,
        *,
        follower: bool = False,
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Answer a failed ``/assign`` with :func:`assign_error`'s mapping.

        With a *start*, the request never reached a service, so its
        assign-side counters are booked here — unless its body is not
        JSON, which a service rejects before them.
        """
        if isinstance(exc, RemoteAssignError):
            status, doc, kind = exc.status, exc.doc, exc.kind
        else:
            status, doc, kind = assign_error(exc)
        if start is not None and kind != "bad_json":
            self._book_miss(start, "failed", follower=follower)
        self.metrics.errors.inc(kind=kind)
        extra = {}
        if status == 429:
            self.metrics.overloads.inc()
            extra = {"Retry-After": str(self.retry_after)}
        return self._json_response(status, doc, endpoint="assign", extra=extra)

    def _json_response(
        self,
        status: int,
        doc: dict,
        *,
        endpoint: str,
        extra: dict[str, str] | None = None,
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Serialize an error or probe document (strings only)."""
        return self._response(
            status, json.dumps(doc).encode(), endpoint=endpoint, extra=extra
        )

    def _response(
        self,
        status: int,
        body: bytes,
        *,
        endpoint: str,
        extra: dict[str, str] | None = None,
    ) -> tuple[int, bytes, str, dict[str, str]]:
        self.metrics.requests.inc(endpoint=endpoint, status=str(status))
        return status, body, "application/json", extra or {}
