"""The online deadline-assignment service and its stdlib HTTP front end.

Two layers:

* :class:`DeadlineAssignmentService` — the embeddable engine: canonical
  digest → LRU cache → single-flight coalescing → micro-batched
  slicing, plus an optional stateful admission path that reuses
  :class:`repro.online.AdmissionController` (one controller per
  distinct platform, keyed by platform digest, so successive admitted
  applications accumulate residual-capacity commitments exactly as in
  the offline §7.2 experiments).

  Concurrency model: deadline distribution is deterministic in its
  canonical inputs, so N concurrent misses on the same digest share
  *one* computation (a digest-keyed in-flight future map — the waiters
  show up as ``repro_singleflight_waits_total``); admission is
  serialized per platform digest only, so distinct platforms admit
  concurrently while each controller's state stays single-writer; and
  the micro-batcher's ``max_queue`` bound sheds overload as
  :class:`~repro.errors.ServiceOverloadError`, which the HTTP layer
  maps to ``429`` with a ``Retry-After`` header.
* :func:`create_server` — a :class:`ThreadingHTTPServer` exposing

  - ``POST /assign``  — JSON request in, per-task slices (+ verdict) out,
  - ``GET /healthz``  — liveness probe,
  - ``GET /metrics``  — Prometheus text exposition.

Every :class:`~repro.errors.ReproError` maps to HTTP 400 with a JSON
``{"error": ..., "kind": ...}`` body; anything else is a 500.  The
response's ``cached`` flag and the cache-hit counters make the caching
behaviour observable end to end.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..core.assignment import DeadlineAssignment
from ..core.slicing import distribute_deadlines
from ..errors import ReproError, ServiceOverloadError
from ..online.admission import AdmissionController, AdmissionDecision
from ..store import TrialStore
from ..system.platform import Platform
from .api import (
    AssignRequest,
    AssignResponse,
    _canonical_platform_doc,
    request_digest,
    request_from_dict,
    response_from_assignment,
    response_to_dict,
)
from .batch import MicroBatcher
from .cache import AssignmentCache, StoreSpill
from .metrics import ServiceMetrics

__all__ = [
    "DeadlineAssignmentService",
    "ServiceHTTPServer",
    "create_server",
]


class DeadlineAssignmentService:
    """Cache-fronted, micro-batched deadline-assignment engine.

    Parameters
    ----------
    cache_size:
        LRU entry budget for computed assignments.
    batch_size / batch_wait / workers:
        Micro-batcher knobs (largest batch, max coalescing wait in
        seconds, pool threads).
    max_queue:
        Bound on in-flight micro-batcher items; overflow raises
        :class:`~repro.errors.ServiceOverloadError` (the backpressure
        path).  ``None`` (default) keeps the queue unbounded.
    cache_dir:
        Optional directory for a persistent :class:`~repro.store.TrialStore`
        backing the LRU as a durable spill tier: computed assignments
        are written through to disk, LRU evictions only drop the memory
        copy, and a restarted service pointed at the same directory
        serves previously computed requests from the store (``cached``
        true on the very first request after restart).  The store's own
        counters appear as ``repro_store_*`` on ``GET /metrics``.
    """

    def __init__(
        self,
        *,
        cache_size: int = 1024,
        batch_size: int = 8,
        batch_wait: float = 0.002,
        workers: int = 4,
        max_queue: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.store: TrialStore | None = None
        spill: StoreSpill[DeadlineAssignment] | None = None
        if cache_dir is not None:
            self.store = TrialStore(cache_dir)
            spill = StoreSpill(
                self.store,
                encode=DeadlineAssignment.to_dict,
                decode=DeadlineAssignment.from_dict,
            )
            self.metrics.set_store_stats_provider(self.store.stats)
        self.cache: AssignmentCache[DeadlineAssignment] = AssignmentCache(
            cache_size, spill=spill
        )
        self.batcher: MicroBatcher[AssignRequest, DeadlineAssignment] = (
            MicroBatcher(
                self._compute,
                max_batch=batch_size,
                max_wait=batch_wait,
                workers=workers,
                max_queue=max_queue,
                on_batch=self.metrics.observe_batch,
            )
        )
        # Single-flight: digest -> future of the in-flight computation.
        self._inflight: dict[str, Future[DeadlineAssignment]] = {}
        self._inflight_lock = threading.Lock()
        # Admission sharding: the registry lock only guards the two
        # dicts; each platform's controller serializes on its own lock.
        self._controllers: dict[str, AdmissionController] = {}
        self._admission_locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self._app_seq = 0
        self._app_seq_lock = threading.Lock()

    # ------------------------------------------------------------------
    def assign(self, request: AssignRequest) -> AssignResponse:
        """Serve one request: cache lookup, else single-flight computation.

        Latency is observed on *every* path, including failures, and a
        failed computation still lands an ``assignments`` bump (as
        ``source="failed"``) so ``repro_assignments_total`` always equals
        ``cache_hits + cache_misses`` — the invariant dashboards divide
        by.  A miss that finds an identical computation already in
        flight waits for it instead of recomputing (``source=
        "coalesced"``, counted in ``repro_singleflight_waits_total``).
        """
        start = time.perf_counter()
        try:
            digest = request_digest(request)
            assignment = self.cache.get(digest)
            cached = assignment is not None
            if cached:
                self.metrics.cache_hits.inc()
                self.metrics.assignments.inc(source="cache")
            else:
                self.metrics.cache_misses.inc()
                assignment = self._compute_single_flight(digest, request)
            admission = self._admit(request) if request.admit else None
        finally:
            self.metrics.assign_latency.observe(time.perf_counter() - start)
        return response_from_assignment(
            assignment, digest, cached=cached, admission=admission
        )

    def _compute_single_flight(
        self, digest: str, request: AssignRequest
    ) -> DeadlineAssignment:
        """Compute *request*, coalescing concurrent identical misses.

        Sound because the computation is a pure function of the digest
        (the cache's own soundness argument): whoever installs the
        in-flight future first becomes the leader and computes; every
        later arrival with the same digest blocks on that future and
        shares the result — success and failure alike.  The leader
        publishes to the cache *before* retiring the future, so a miss
        that finds neither a cache entry nor an in-flight future can
        only recompute something the cache has since evicted.
        """
        flight: Future[DeadlineAssignment] = Future()
        with self._inflight_lock:
            leader = self._inflight.get(digest)
            if leader is None:
                self._inflight[digest] = flight
        if leader is not None:
            self.metrics.singleflight_waits.inc()
            try:
                assignment = leader.result()
            except BaseException:
                self.metrics.assignments.inc(source="failed")
                raise
            self.metrics.assignments.inc(source="coalesced")
            return assignment
        try:
            assignment = self.batcher.submit(request).result()
        except BaseException as exc:
            self.metrics.assignments.inc(source="failed")
            with self._inflight_lock:
                self._inflight.pop(digest, None)
            flight.set_exception(exc)
            raise
        self.cache.put(digest, assignment)
        self.metrics.assignments.inc(source="computed")
        with self._inflight_lock:
            self._inflight.pop(digest, None)
        flight.set_result(assignment)
        return assignment

    def assign_dict(self, data: Any) -> dict[str, Any]:
        """Dict-in/dict-out convenience wrapper (the HTTP body path)."""
        return response_to_dict(self.assign(request_from_dict(data)))

    def close(self, timeout: float | None = None) -> None:
        """Stop the batcher; in-flight requests complete first.

        With a *timeout* the drain is bounded: outstanding computations
        get up to that many seconds, then their futures are failed so
        no caller is left hanging (see :meth:`MicroBatcher.close`).
        The persistent store (if any) closes after the drain, so every
        completed computation's write-through lands before its lock is
        released.
        """
        self.batcher.close(timeout=timeout)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "DeadlineAssignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _compute(self, request: AssignRequest) -> DeadlineAssignment:
        return distribute_deadlines(
            request.graph,
            request.platform,
            request.metric,
            estimator=request.estimator,
            params=request.params,
        )

    def _platform_key(self, platform: Platform) -> str:
        text = json.dumps(
            _canonical_platform_doc(platform),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def _admission_shard(
        self, request: AssignRequest
    ) -> tuple[threading.Lock, AdmissionController]:
        """The (lock, controller) pair serving *request*'s platform.

        Creation is idempotent under the registry lock; afterwards the
        registry is never needed again for this platform — submissions
        serialize only on the per-platform lock, so admissions to
        distinct platforms proceed concurrently.
        """
        key = self._platform_key(request.platform)
        with self._registry_lock:
            lock = self._admission_locks.setdefault(key, threading.Lock())
            controller = self._controllers.get(key)
            if controller is None:
                controller = AdmissionController(
                    request.platform,
                    metric=request.metric,
                    estimator=request.estimator,
                    params=request.params,
                )
                self._controllers[key] = controller
        return lock, controller

    def _generate_app_id(self, controller: AdmissionController) -> str:
        """A fresh ``app-N`` id that cannot shadow a committed one.

        The sequence advances only when the service actually generates
        an id (caller-supplied names never consume numbers), and any
        value a caller already committed under — e.g. a client that
        named its app ``app-2`` — is skipped, so generated ids never
        collide with admitted applications.
        """
        committed = set(controller.admitted_ids())
        while True:
            with self._app_seq_lock:
                self._app_seq += 1
                candidate = f"app-{self._app_seq}"
            if candidate not in committed:
                return candidate

    def _admit(self, request: AssignRequest) -> AdmissionDecision:
        """Run the stateful admission path for *request*.

        The controller for the request's platform is created on first
        use and keeps its commitments across requests; its per-platform
        lock serializes submissions because controller state is not
        thread-safe and arrivals must be monotone — but only within the
        platform, so unrelated platforms never queue on each other.
        """
        lock, controller = self._admission_shard(request)
        with lock:
            app_id = request.app_id or self._generate_app_id(controller)
            arrival = (
                request.arrival
                if request.arrival is not None
                else controller.clock
            )
            decision = controller.submit(
                app_id,
                request.graph,
                arrival=arrival,
                relative_deadline=request.relative_deadline,
            )
        outcome = "admitted" if decision.admitted else "rejected"
        self.metrics.admissions.inc(outcome=outcome)
        return decision

    def admission_controller(
        self, platform: Platform
    ) -> AdmissionController | None:
        """The controller serving *platform*'s admissions, if any yet."""
        with self._registry_lock:
            return self._controllers.get(self._platform_key(platform))


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one service instance."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: DeadlineAssignmentService,
        *,
        retry_after: int = 1,
        fabric: Any = None,
    ) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.retry_after = retry_after
        #: Optional sweep-fabric endpoint (see :mod:`repro.fabric`):
        #: when set, ``/fabric/*`` requests are dispatched to its
        #: ``handle(method, path, doc)``; when ``None`` they 404.
        self.fabric = fabric


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Small JSON responses after sub-ms cache hits sit exactly in the
    # Nagle + delayed-ACK stall window; send segments immediately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"}, endpoint="healthz")
        elif self.path.startswith("/fabric/"):
            self._handle_fabric("GET", None)
        elif self.path == "/metrics":
            body = self.server.service.metrics.render().encode()
            self.server.service.metrics.requests.inc(
                endpoint="metrics", status="200"
            )
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(
                404,
                {"error": f"unknown path {self.path!r}"},
                endpoint="unknown",
            )

    # Bodies larger than this are not drained for keep-alive reuse on
    # error paths; the connection is closed instead.
    _MAX_DRAIN = 1 << 20

    def _drain_request_body(self) -> None:
        """Consume an unread request body so keep-alive stays in sync.

        HTTP/1.1 replies on a persistent connection must not leave the
        request's body bytes in the stream — the peer's next request
        would be parsed starting inside them.  Reads and discards
        ``Content-Length`` bytes; anything unbounded (chunked encoding,
        oversized or unparsable lengths) flips ``close_connection``
        instead, which tells the base handler to drop the connection
        after the reply.
        """
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            self.close_connection = True
            return
        if length <= 0:
            return
        if length > self._MAX_DRAIN:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                self.close_connection = True
                return
            length -= len(chunk)

    def _handle_fabric(self, method: str, doc: Any) -> None:
        """Dispatch one ``/fabric/*`` request to the mounted endpoint.

        The endpoint object is duck-typed (``handle(method, path, doc)
        -> (status, body)``) so the service layer does not import
        :mod:`repro.fabric`; errors map exactly like ``/assign``'s:
        :class:`ReproError` → 400, anything else → 500.
        """
        service = self.server.service
        fabric = self.server.fabric
        if fabric is None:
            self._send_json(
                404,
                {"error": "no sweep fabric mounted on this server"},
                endpoint="fabric",
            )
            return
        try:
            status, reply = fabric.handle(method, self.path, doc)
        except ReproError as exc:
            service.metrics.errors.inc(kind=type(exc).__name__)
            self._send_json(
                400,
                {"error": str(exc), "kind": type(exc).__name__},
                endpoint="fabric",
            )
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            service.metrics.errors.inc(kind="internal")
            self._send_json(
                500, {"error": f"internal error: {exc}"}, endpoint="fabric"
            )
            return
        self._send_json(status, reply, endpoint="fabric")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/fabric/"):
            service = self.server.service
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                data = json.loads(body.decode() or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                service.metrics.errors.inc(kind="bad_json")
                self._send_json(
                    400,
                    {"error": f"request body is not valid JSON: {exc}"},
                    endpoint="fabric",
                )
                return
            self._handle_fabric("POST", data)
            return
        if self.path != "/assign":
            # Read the body we are not going to use *before* replying,
            # or its bytes desync the next request on this connection.
            self._drain_request_body()
            self._send_json(
                404,
                {"error": f"unknown path {self.path!r}"},
                endpoint="unknown",
            )
            return
        service = self.server.service
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length)
            data = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            service.metrics.errors.inc(kind="bad_json")
            self._send_json(
                400,
                {"error": f"request body is not valid JSON: {exc}"},
                endpoint="assign",
            )
            return
        try:
            doc = service.assign_dict(data)
        except ServiceOverloadError as exc:
            # Backpressure: bounded queue full.  Shed the request with
            # the standard retry contract instead of queueing it.
            service.metrics.errors.inc(kind="ServiceOverloadError")
            service.metrics.overloads.inc()
            self._send_json(
                429,
                {"error": str(exc), "kind": "ServiceOverloadError"},
                endpoint="assign",
                extra_headers={
                    "Retry-After": str(self.server.retry_after)
                },
            )
            return
        except ReproError as exc:
            service.metrics.errors.inc(kind=type(exc).__name__)
            self._send_json(
                400,
                {"error": str(exc), "kind": type(exc).__name__},
                endpoint="assign",
            )
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            service.metrics.errors.inc(kind="internal")
            self._send_json(
                500,
                {"error": f"internal error: {exc}"},
                endpoint="assign",
            )
            return
        self._send_json(200, doc, endpoint="assign")

    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        doc: dict[str, Any],
        *,
        endpoint: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        # Serialize before touching the wire or the request counter: a
        # non-finite float in *doc* must degrade to a 500 JSON reply (and
        # be counted as such), not kill the connection after metrics
        # already claimed a success.
        try:
            body = json.dumps(doc, allow_nan=False).encode()
        except ValueError:
            status = 500
            self.server.service.metrics.errors.inc(kind="non_finite_json")
            body = json.dumps(
                {"error": "internal error: response contained non-finite numbers"}
            ).encode()
        self.server.service.metrics.requests.inc(
            endpoint=endpoint, status=str(status)
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the metrics endpoint's job


def create_server(
    host: str = "127.0.0.1",
    port: int = 8077,
    service: DeadlineAssignmentService | None = None,
    *,
    retry_after: int = 1,
    fabric: Any = None,
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer`; ``port=0`` picks a free port.

    ``retry_after`` is the ``Retry-After`` hint (seconds) attached to
    429 responses when the service sheds load.  ``fabric`` mounts a
    sweep-fabric endpoint (``/fabric/*`` lease/complete/heartbeat/
    status routes for remote sweep workers — see :mod:`repro.fabric`).
    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()``/``server_close()`` to stop, and
    ``server.service.close()`` to drain the batcher (pass a timeout
    for a bounded drain).
    """
    if service is None:
        service = DeadlineAssignmentService()
    return ServiceHTTPServer(
        (host, port), service, retry_after=retry_after, fabric=fabric
    )
