"""The online deadline-assignment service and its in-process backend.

Two layers:

* :class:`DeadlineAssignmentService` — the embeddable engine: canonical
  digest → LRU cache → single-flight coalescing → slicing on the
  calling thread, plus an optional stateful admission path that reuses
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
  ``max_queue`` bounds the computations running at once, shedding the
  next distinct miss as :class:`~repro.errors.ServiceOverloadError`,
  which the HTTP layer maps to ``429`` with a ``Retry-After`` header.
* :class:`InProcessBackend` — the backend of ``repro serve --workers
  1`` behind the asyncio front end (:mod:`repro.service.frontend`):
  one service in this process, with the surface the front end uses on
  :class:`~repro.service.pool.WorkerPool`.

Every topology answers ``POST /assign`` through
:meth:`DeadlineAssignmentService.assign_body`, bytes in and bytes out,
and maps its failures with :func:`assign_error`: every
:class:`~repro.errors.ReproError` is HTTP 400 with a JSON ``{"error":
..., "kind": ...}`` body, overload a 429, anything else a 500.  The
response's ``cached`` flag and the cache-hit counters make the caching
behaviour observable end to end.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, wait
from pathlib import Path
from typing import Any

from ..core.assignment import DeadlineAssignment
from ..core.slicing import distribute_deadlines
from ..errors import ReproError, ServiceOverloadError, ValidationError
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
from .cache import AssignmentCache, StoreSpill
from .metrics import ServiceMetrics
from .pool import _REQUEST_THREADS

__all__ = [
    "DeadlineAssignmentService",
    "InProcessBackend",
    "assign_error",
]

#: Largest request body the front end reads.
MAX_BODY_BYTES = 64 << 20

_NON_FINITE = "internal error: response contained non-finite numbers"


class BadJSONError(ValueError):
    """A request body that is not UTF-8 JSON (HTTP 400, ``bad_json``)."""


class NonFiniteReplyError(ValueError):
    """A reply that JSON cannot carry (HTTP 500, ``non_finite_json``)."""


def load_body(body: bytes) -> Any:
    """Decode one request body; an empty body is ``null``."""
    try:
        return json.loads(body.decode() or "null")
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadJSONError(f"request body is not valid JSON: {exc}") from None


def checked_length(value: str) -> tuple[int, tuple[int, dict] | None]:
    """Parse a ``Content-Length`` header value against :data:`MAX_BODY_BYTES`.

    Returns ``(length, None)``, or ``(0, (status, document))`` for a
    value the front end refuses before reading any body: 400 for a
    non-integer, 413 for a negative length or one over the limit.  The
    stream position is then unknown, so the connection closes.
    """
    try:
        length = int(value or "0")
    except ValueError:
        return 0, (400, {"error": "invalid Content-Length"})
    if length < 0 or length > MAX_BODY_BYTES:
        return 0, (413, {"error": "request body too large"})
    return length, None


def assign_error(exc: BaseException) -> tuple[int, dict[str, str], str]:
    """The HTTP status, reply document and ``errors`` kind of a failed
    ``POST /assign``.

    The one mapping of every topology, used for ``/fabric/*`` failures
    too: a body that is not JSON is 400 without a ``kind``; overload is
    429 (the caller adds ``Retry-After``); any other
    :class:`~repro.errors.ReproError` is 400 with its class name as
    ``kind``; a non-finite reply and anything else are 500.
    """
    if isinstance(exc, BadJSONError):
        return 400, {"error": str(exc)}, "bad_json"
    if isinstance(exc, ReproError):
        kind = type(exc).__name__
        status = 429 if isinstance(exc, ServiceOverloadError) else 400
        return status, {"error": str(exc), "kind": kind}, kind
    if isinstance(exc, NonFiniteReplyError):
        return 500, {"error": str(exc)}, "non_finite_json"
    return 500, {"error": f"internal error: {exc}"}, "internal"


def _reply_bytes(response: AssignResponse) -> bytes:
    """The ``200`` body of *response*, as the front end sends it."""
    try:
        return json.dumps(response_to_dict(response), allow_nan=False).encode()
    except ValueError:
        raise NonFiniteReplyError(_NON_FINITE) from None


class DeadlineAssignmentService:
    """Cache-fronted deadline-assignment engine.

    A cache miss is computed on the thread that asked for it; the
    service starts no threads of its own.

    Parameters
    ----------
    cache_size:
        LRU entry budget for computed assignments; it also bounds the
        body memo of :meth:`assign_body`.
    max_queue:
        Bound on computations running at once; the next distinct miss
        raises :class:`~repro.errors.ServiceOverloadError` (the
        backpressure path).  Cache hits and single-flight followers
        are never shed.  ``None`` (default) means unbounded.
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
        max_queue: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValidationError(
                f"max_queue must be at least 1 (or None), got {max_queue}"
            )
        self.max_queue = max_queue
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
        # Single-flight: digest -> future of the running computation, so
        # its size is the number of computations running.  The condition
        # guards it and the closed flag, and wakes close() as each
        # computation retires.
        self._inflight: dict[str, Future[DeadlineAssignment]] = {}
        self._inflight_lock = threading.Condition()
        self._closed = False
        # Admission sharding: the registry lock only guards the two
        # dicts; each platform's controller serializes on its own lock.
        self._controllers: dict[str, AdmissionController] = {}
        self._admission_locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self._app_seq = 0
        self._app_seq_lock = threading.Lock()
        # Body memo of assign_body: SHA-256 of the raw bytes ->
        # [request digest, cached-reply bytes or None].
        self._memo: OrderedDict[bytes, list] = OrderedDict()
        self._memo_lock = threading.Lock()

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
            assignment = self._lookup(digest)
            cached = assignment is not None
            if not cached:
                assignment = self._compute_single_flight(digest, request)
            admission = self._admit(request) if request.admit else None
        finally:
            self.metrics.assign_latency.observe(time.perf_counter() - start)
        return response_from_assignment(
            assignment, digest, cached=cached, admission=admission
        )

    def assign_body(self, body: bytes) -> bytes:
        """Serve one raw ``POST /assign`` body; returns the 200 reply.

        The ``/assign`` entry of every topology.  A body that parsed,
        validated and carries no ``admit`` is remembered by the SHA-256
        of its bytes, next to its request digest; the memo holds at most
        ``cache_size`` bodies and drops the least recently used first.
        When the same bytes return, the digest goes straight to one
        cache lookup — no decoding, validation or re-digesting — and a
        hit books exactly what :meth:`assign`'s hit books.  The encoded
        ``cached: true`` reply is kept once the body has been answered
        from the cache, so later repeats skip encoding as well, and
        :meth:`cached_reply` answers them first.  The memo stores no
        assignment: when the cache has dropped the digest, the lookup
        counts a miss and the parsed body is computed under the known
        digest.

        Failures raise; :func:`assign_error` maps them to HTTP replies
        (:class:`BadJSONError` for a body that is not JSON,
        :class:`NonFiniteReplyError` for a reply JSON cannot carry).
        """
        key = hashlib.sha256(body).digest()
        entry = self._memo_entry(key)
        if entry is None:
            request = request_from_dict(load_body(body))
            response = self.assign(request)
            reply = _reply_bytes(response)
            if not request.admit:
                kept = reply if response.cached else None
                with self._memo_lock:
                    self._memo[key] = [response.digest, kept]
                    while len(self._memo) > self.cache.maxsize:
                        self._memo.popitem(last=False)
            return reply
        reply = self._kept_reply(entry)
        if reply is not None:
            return reply
        digest = entry[0]
        start = time.perf_counter()
        try:
            assignment = self._lookup(digest)
            cached = assignment is not None
            if not cached:
                assignment = self._compute_single_flight(
                    digest, request_from_dict(load_body(body))
                )
        finally:
            self.metrics.assign_latency.observe(time.perf_counter() - start)
        if not cached:
            return _reply_bytes(response_from_assignment(assignment, digest))
        if entry[1] is None:
            entry[1] = _reply_bytes(
                response_from_assignment(assignment, digest, cached=True)
            )
        return entry[1]

    def cached_reply(self, body: bytes) -> bytes | None:
        """The kept ``cached: true`` reply of a repeated *body*, or ``None``.

        Answers when the body memo already holds the encoded reply and
        the LRU holds its digest in memory, and books what any cache hit
        books: one ``cache_hits``, one ``assignments{source="cache"}``
        and one latency observation.  It never decodes, computes, admits
        or reads the spill tier, so the front end's event loop calls it
        on ``--workers 1``; ``None`` books nothing and leaves the body
        to :meth:`assign_body`.
        """
        return self._kept_reply(
            self._memo_entry(hashlib.sha256(body).digest())
        )

    def _memo_entry(self, key: bytes) -> list | None:
        """The memo entry of body hash *key*, refreshed as most recent."""
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
        return entry

    def _kept_reply(self, entry: list | None) -> bytes | None:
        """The hit path shared by :meth:`cached_reply` and
        :meth:`assign_body`."""
        if entry is None or entry[1] is None:
            return None
        start = time.perf_counter()
        if self.cache.get_hot(entry[0]) is None:
            return None
        self.metrics.cache_hits.inc()
        self.metrics.assignments.inc(source="cache")
        self.metrics.assign_latency.observe(time.perf_counter() - start)
        return entry[1]

    def _lookup(self, digest: str) -> DeadlineAssignment | None:
        """One cache lookup, booked as a hit or a miss."""
        assignment = self.cache.get(digest)
        if assignment is None:
            self.metrics.cache_misses.inc()
        else:
            self.metrics.cache_hits.inc()
            self.metrics.assignments.inc(source="cache")
        return assignment

    def _compute_single_flight(
        self, digest: str, request: AssignRequest
    ) -> DeadlineAssignment:
        """Compute *request* on this thread, coalescing identical misses.

        Sound because the computation is a pure function of the digest
        (the cache's own soundness argument): whoever installs the
        in-flight future first becomes the leader and computes; every
        later arrival with the same digest blocks on that future and
        shares the result — success and failure alike.  The leader
        publishes to the cache *before* retiring the future, so a miss
        that finds neither a cache entry nor an in-flight future can
        only recompute something the cache has since evicted.  A
        would-be leader is refused with ``RuntimeError`` after
        :meth:`close` and with
        :class:`~repro.errors.ServiceOverloadError` when ``max_queue``
        computations are running; followers are never refused.
        """
        flight: Future[DeadlineAssignment] = Future()
        refusal: Exception | None = None
        with self._inflight_lock:
            leader = self._inflight.get(digest)
            if leader is None:
                if self._closed:
                    refusal = RuntimeError("assignment service is closed")
                elif (
                    self.max_queue is not None
                    and len(self._inflight) >= self.max_queue
                ):
                    refusal = ServiceOverloadError(
                        f"assignment service is full ({self.max_queue} "
                        "computations running)"
                    )
                else:
                    self._inflight[digest] = flight
        if refusal is not None:
            self.metrics.assignments.inc(source="failed")
            raise refusal
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
            assignment = self._compute(request)
            self.cache.put(digest, assignment)
        except BaseException as exc:
            self.metrics.assignments.inc(source="failed")
            self._retire(digest)
            flight.set_exception(exc)
            raise
        self.metrics.assignments.inc(source="computed")
        self._retire(digest)
        flight.set_result(assignment)
        return assignment

    def _retire(self, digest: str) -> None:
        """Drop *digest*'s in-flight entry and wake a waiting drain."""
        with self._inflight_lock:
            del self._inflight[digest]
            self._inflight_lock.notify_all()

    def assign_dict(self, data: Any) -> dict[str, Any]:
        """Dict-in/dict-out wrapper of :meth:`assign` for embedders and
        tests; it bypasses :meth:`assign_body`'s memo."""
        return response_to_dict(self.assign(request_from_dict(data)))

    def close(self, timeout: float | None = None) -> None:
        """Refuse new computations and wait for the running ones.

        Without a *timeout* the wait is unbounded; with one it lasts at
        most that many seconds.  Cache hits are still answered.  The
        persistent store (if any) closes after the wait, so every
        completed computation's write-through lands first.  Idempotent.
        """
        with self._inflight_lock:
            self._closed = True
            self._inflight_lock.wait_for(lambda: not self._inflight, timeout)
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


class InProcessBackend:
    """The front end's backend for ``repro serve --workers 1``.

    One :class:`DeadlineAssignmentService` in this process, behind the
    surface the front end uses on
    :class:`~repro.service.pool.WorkerPool`: :meth:`start`,
    :meth:`submit`, :meth:`metrics_snapshots`, :meth:`close` and
    :attr:`workers`.  :meth:`cached_reply` answers kept body-memo hits
    on the caller's thread (the event loop); :meth:`submit` hands every
    other body to ``assign_body`` on a few daemon request threads, as
    many as each pool worker runs.  Daemon threads, not a
    ``ThreadPoolExecutor`` (which joins its threads at interpreter
    exit): a computation still running after the drain timeout must
    not keep the process alive.

    The service's ``max_queue`` bounds its running computations, so
    the next distinct miss fails with
    :class:`~repro.errors.ServiceOverloadError` (HTTP 429).
    """

    def __init__(self, service: DeadlineAssignmentService | None = None) -> None:
        self.service = service if service is not None else DeadlineAssignmentService()
        self.cached_reply = self.service.cached_reply
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        # Futures submitted and not yet settled: the drain's scope.
        self._pending: set[Future] = set()
        self._lock = threading.Lock()
        self._closed = False

    def start(self, timeout: float = 60.0) -> None:
        """Start the request threads (*timeout* mirrors the pool's)."""
        for index in range(_REQUEST_THREADS):
            thread = threading.Thread(
                target=self._serve,
                name=f"repro-assign-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def workers(self) -> int:
        """1 while serving, as one live worker of a pool would read."""
        return int(bool(self._threads) and not self._closed)

    def submit(self, body: bytes) -> Future:
        """Queue one raw ``/assign`` body; returns its future.

        The future resolves to the 200 reply bytes or fails with what
        ``assign_body`` raised.  Raises ``RuntimeError`` once closed.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed backend")
            self._pending.add(future)
        self._jobs.put((future, body))
        return future

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            future, body = job
            with self._lock:
                if future not in self._pending:
                    continue  # failed by a timed drain before it ran
            try:
                reply = self.service.assign_body(body)
            except Exception as exc:  # noqa: BLE001 - the caller's reply
                self._settle(future, exc)
            else:
                self._settle(future, None, reply)

    def _settle(
        self, future: Future, exc: BaseException | None, reply: bytes = b""
    ) -> None:
        with self._lock:
            if future not in self._pending:
                return  # a timed drain failed it already
            self._pending.discard(future)
        if exc is None:
            future.set_result(reply)
        else:
            future.set_exception(exc)

    def metrics_snapshots(self) -> list[dict]:
        """The service's one metrics snapshot."""
        return [self.service.metrics.snapshot()]

    def close(self, timeout: float | None = None) -> None:
        """Refuse new bodies, wait for the submitted ones, stop.

        Bounded when *timeout* is given: bodies still unanswered then
        fail with ``RuntimeError`` (HTTP 500), as on the pool.  The
        service closes last, so every answered computation's spill
        write lands first.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
        wait(pending, timeout=timeout)
        with self._lock:
            stragglers = list(self._pending)
            self._pending.clear()
        for future in stragglers:
            future.set_exception(
                RuntimeError("assignment drain timed out; request abandoned")
            )
        for _ in self._threads:
            self._jobs.put(None)
        self.service.close(timeout=0.0)
