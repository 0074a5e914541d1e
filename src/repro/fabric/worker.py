"""The fabric worker loop: lease → compute → commit, until the sweep ends.

Transport-agnostic (see :mod:`repro.fabric.transport`): the same loop
drives a local worker process sharing the coordinator's store directory
and a remote worker pulling leases over HTTP.

**Batched protocol.**  A worker leases up to ``batch`` units in one
round trip (:meth:`Transport.lease_batch`), computes them as one
coalesced seed batch (:func:`~repro.fabric.units.compute_units` — the
vec tier gets every lane at once), and group-commits: all the batch's
trial records flush to the store in one append, then every unit is
marked done in one :meth:`Transport.complete_batch`.  The ordering
contract is per *batch* what it was per unit — records are durably
committed before any of their units is reported done, so a crash
between the two steps re-issues units whose records already landed and
the next holder completes them without recomputation.

Liveness protocol:

* while computing, a daemon thread heartbeats at a third of the lease
  TTL — one call extends *all* of the worker's leases, so slow batches
  never expire out from under a live worker;
* a worker that dies silently (SIGKILL, OOM, power) simply stops
  heartbeating — its leases expire and other workers steal them;
* a worker that *fails* computing releases every lease of the batch
  explicitly (no TTL wait) and re-raises, so a poisoned unit surfaces
  instead of bouncing between workers forever;
* an idle worker (no leasable unit, sweep unfinished) naps ``poll``
  seconds and retries — this is where stolen work comes from.

Workers exit when the queue reports the sweep finished.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Protocol

from .queue import check_ttl
from .units import WorkUnit, compute_units

__all__ = ["DEFAULT_BATCH", "worker_loop", "local_worker_entry"]

#: Default units per lease round trip.  Big enough to amortize the
#: lock/HTTP protocol cost and feed the vec tier multi-unit seed
#: batches, small enough that a dying worker's re-issued backlog stays
#: cheap and stealable.
DEFAULT_BATCH = 16


class Transport(Protocol):  # pragma: no cover - typing aid
    def lease_batch(
        self, worker: str, k: int, ttl: float
    ) -> list[WorkUnit]: ...
    def heartbeat(self, worker: str, ttl: float) -> None: ...
    def stored(self, unit: WorkUnit) -> bool: ...
    def complete_batch(
        self,
        worker: str,
        units: list[WorkUnit],
        records: list[tuple[str, Any]],
    ) -> None: ...
    def release(self, worker: str, unit: WorkUnit) -> None: ...
    def finished(self) -> bool: ...


class _Heartbeat:
    """Daemon thread renewing one worker's leases while it computes."""

    def __init__(self, transport: Transport, worker: str, ttl: float) -> None:
        self._transport = transport
        self._worker = worker
        self._ttl = ttl
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self._ttl / 3.0, 0.05)
        while not self._stop.wait(interval):
            try:
                self._transport.heartbeat(self._worker, self._ttl)
            except Exception:  # noqa: BLE001 - heartbeat is best-effort
                return  # the lease will expire and be re-issued

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def worker_loop(
    transport: Transport,
    worker: str,
    *,
    lease_ttl: float = 30.0,
    poll: float = 0.2,
    batch: int = DEFAULT_BATCH,
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
    max_units: int | None = None,
) -> int:
    """Drain the sweep through *transport*; returns units completed.

    ``batch`` caps the units leased (and group-committed) per round
    trip; ``max_units`` bounds this worker's total share (tests and
    canary runs) — the loop otherwise runs until
    :meth:`Transport.finished`.  ``use_kernel``/``use_vec`` pin the
    fast-path tiers per worker (``use_kernel=False`` is the reference
    oracle; ``use_vec`` defaults to the inherited ``REPRO_VEC``
    environment), and records commit bit-identically either way.
    A ``lease_ttl`` that is not positive and finite raises
    :class:`~repro.errors.FabricError` before anything is leased.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    check_ttl(lease_ttl)
    completed = 0
    while max_units is None or completed < max_units:
        k = batch if max_units is None else min(batch, max_units - completed)
        units = transport.lease_batch(worker, k, lease_ttl)
        if not units:
            if transport.finished():
                break
            time.sleep(poll)
            continue
        try:
            with _Heartbeat(transport, worker, lease_ttl):
                # Re-issued units whose records already landed (the
                # holder died after commit, before the done mark) are
                # completed without recomputation.
                todo = [u for u in units if not transport.stored(u)]
                records = compute_units(todo, use_kernel, use_vec)
            transport.complete_batch(worker, units, records)
        except BaseException:
            for unit in units:
                try:
                    transport.release(worker, unit)
                except Exception:  # noqa: BLE001 - the lease expires anyway
                    pass
            raise
        completed += len(units)
    return completed


def local_worker_entry(
    store_root: str,
    fabric_root: str,
    worker: str,
    lease_ttl: float,
    poll: float,
    batch: int = DEFAULT_BATCH,
) -> None:
    """Process entry point of one ``repro sweep --workers N`` worker.

    Spawn-safe: arguments are plain strings/floats, every object is
    reconstructed here.  The worker runs the compiled kernel, and its
    vectorized-tier choice deliberately defers to the ``REPRO_VEC``
    environment it inherited, exactly like a single-process run's pool
    workers.
    """
    from .transport import LocalTransport

    transport = LocalTransport(store_root, fabric_root)
    try:
        worker_loop(
            transport, worker, lease_ttl=lease_ttl, poll=poll, batch=batch
        )
    finally:
        transport.close()
