"""Durable work queue: the sweep fabric's coordinator-owned state.

One sweep's execution state lives in a small directory next to the
trial store::

    <store>/fabric/<sweep12>/
      MANIFEST.json     # periodic snapshot of unit states (atomic rename)
      JOURNAL.jsonl     # fsync'd append-only log of state transitions
      UNITS.json        # the unit payloads (written once, read-only)
      .lock             # cross-process FileLock guarding queue mutations

Every unit runs the same state machine::

    pending ──lease──▶ leased ──complete──▶ done
       ▲                 │
       └──expiry/steal───┘   (attempts += 1, reissues += 1)

**Journaled commits.**  A state transition is an O(1) append of one
JSON line to ``JOURNAL.jsonl`` under the :class:`~repro.store.FileLock`
— not a rewrite of the whole manifest (a whole-document commit per
transition would make a sweep's queue I/O O(units²) in total).  The
authoritative state is *snapshot + journal suffix*: each journal record
carries a monotone sequence number ``q``, the snapshot records the last
sequence folded into it, and every reader replays only the records with
``q > snapshot.seq``.  Once the journal outgrows ``compact_bytes`` the
holder of the lock compacts: it writes a fresh snapshot and truncates
the journal (snapshot first, so a crash between the two steps merely
leaves already-folded records to be skipped by the sequence guard).

**Crash safety.**  Journal appends are flushed and (by default)
fsync'd before the lock is released.  A writer SIGKILLed mid-append
leaves a torn final line; the next process to take the lock heals it
by terminating the file with a newline — a torn line that decodes
(the writer died between ``write`` and ``fsync`` return) is replayed
exactly once thanks to the sequence guard, and undecodable torn bytes
are skipped as their own garbage line, exactly like the
:class:`~repro.store.TrialStore` segment tail.  Since every mutation
happened under the exclusive lock, everything before the torn tail is
intact whole lines.

**Batched verbs.**  :meth:`WorkQueue.lease_batch` hands up to *k* units
to a worker in one lock acquisition and one journal append, and
:meth:`WorkQueue.complete_batch` marks a worker's whole batch done the
same way — the per-unit protocol cost is amortized across the batch.
:meth:`WorkQueue.heartbeat` extends all of a worker's leases in one
append, and *skips the commit entirely* when the worker holds no lease
(nothing changed, so nothing is written).  Completions stay idempotent
— a stolen unit completed by both the thief and a resurrected original
holder counts once, and the records they commit are content-addressed
so double commits are no-ops.

Lease lifetimes must be positive and finite: a NaN or infinite expiry
never compares as expired, so a dead holder's units would never be
stolen.  A manifest in any format but :data:`QUEUE_FORMAT` (such as
the pre-journal ``repro.fabric-queue/1``) is refused.

Resume: re-creating a queue over an existing manifest with the same
sweep id keeps every ``done`` unit (nothing is recomputed) and leaves
live leases to expire naturally; a different sweep id is an error —
sweep directories are keyed by the sweep's content address, so this
only happens when state is corrupted or mixed by hand.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import FabricError
from ..store import FileLock

__all__ = ["WorkQueue", "QueueSnapshot", "QUEUE_FORMAT", "check_ttl"]

QUEUE_FORMAT = "repro.fabric-queue/2"

_STATES = ("pending", "leased", "done")

#: Journal size (bytes) past which the next mutation compacts the queue
#: (snapshot rewrite + journal truncation, both under the lock).
_DEFAULT_COMPACT_BYTES = 256 * 1024


def check_ttl(ttl: float) -> None:
    """Raise :class:`FabricError` unless ``0 < ttl < inf``.

    NaN fails the chained test too, where a plain ``ttl <= 0`` check
    would let it through.
    """
    if not 0 < ttl < math.inf:
        raise FabricError(f"lease ttl must be positive and finite, got {ttl}")


@dataclass(frozen=True)
class QueueSnapshot:
    """Point-in-time counts of one queue (the observability surface)."""

    sweep: str
    pending: int
    leased: int
    done: int
    leases: int
    completions: int
    reissues: int
    #: worker id → last heartbeat/lease timestamp (queue clock).
    workers: Mapping[str, float] = field(default_factory=dict)
    #: worker id → number of live leases it currently holds.
    leased_by: Mapping[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.pending + self.leased + self.done

    @property
    def finished(self) -> bool:
        return self.total > 0 and self.done == self.total

    def live_workers(self, now: float, window: float) -> int:
        """Workers heard from within *window* seconds of *now*."""
        return sum(1 for seen in self.workers.values() if now - seen <= window)

    def to_dict(self) -> dict[str, object]:
        return {
            "sweep": self.sweep,
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "total": self.total,
            "finished": self.finished,
            "leases": self.leases,
            "completions": self.completions,
            "reissues": self.reissues,
            "workers": dict(self.workers),
            "leased_by": dict(self.leased_by),
        }


class WorkQueue:
    """Durable, multi-process work queue over one sweep's units.

    Every operation synchronizes with the on-disk state under the file
    lock — any number of worker processes (and the coordinator) can
    share one queue directory.  Within a process the snapshot and the
    consumed journal prefix are cached, so a quiet queue costs one
    ``stat`` per operation, and a busy one reads only the journal
    lines it has not seen yet; the cache is invalidated whenever
    another process compacts (the snapshot's inode changes).
    ``clock`` is injectable for tests — both ends of a lease comparison
    go through it.  ``fsync`` (default on) forces each journal append
    to stable storage before the lock is released; ``compact_bytes``
    bounds the journal's size between snapshots.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        clock: Callable[[], float] = time.time,
        fsync: bool = True,
        compact_bytes: int = _DEFAULT_COMPACT_BYTES,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / "MANIFEST.json"
        self.journal_path = self.root / "JOURNAL.jsonl"
        self._lock = FileLock(self.root / ".lock")
        self._mutex = threading.RLock()
        self._clock = clock
        self._fsync = fsync
        self.compact_bytes = max(1, int(compact_bytes))
        # Per-process cache: the snapshot+journal state already folded
        # in, and the identity of the snapshot file it came from.
        self._doc: dict | None = None
        self._snap_sig: tuple[int, int, int] | None = None
        self._journal_offset = 0

    # ------------------------------------------------------------------
    # Creation / load
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        sweep: str,
        unit_ids: Iterable[str],
        *,
        done: Iterable[str] = (),
        clock: Callable[[], float] = time.time,
        fsync: bool = True,
        compact_bytes: int = _DEFAULT_COMPACT_BYTES,
    ) -> "WorkQueue":
        """Create (or resume) the queue for *sweep* in *root*.

        *done* pre-marks units whose results already sit in the store —
        the warm-start path.  On resume (an existing manifest with the
        same sweep id), previously ``done`` units stay done and leases
        are left to expire; pre-marked done units are unioned in.
        """
        queue = cls(
            root, clock=clock, fsync=fsync, compact_bytes=compact_bytes
        )
        queue.root.mkdir(parents=True, exist_ok=True)
        ids = list(unit_ids)
        if len(set(ids)) != len(ids):
            raise FabricError("duplicate unit ids in sweep")
        done_set = set(done)
        unknown = done_set - set(ids)
        if unknown:
            raise FabricError(
                f"{len(unknown)} pre-done unit(s) not in the sweep"
            )
        with queue._mutex, queue._lock:
            existing = queue._sync_locked(missing_ok=True)
            if existing is not None:
                if existing.get("sweep") != sweep:
                    raise FabricError(
                        f"queue at {queue.root} belongs to sweep "
                        f"{str(existing.get('sweep'))[:12]}..., not "
                        f"{sweep[:12]}..."
                    )
                units = existing["units"]
                if set(units) != set(ids):
                    raise FabricError(
                        f"queue at {queue.root} has a different unit set "
                        "than this sweep (corrupt manifest?)"
                    )
                fresh = sorted(
                    uid for uid in done_set if units[uid]["state"] != "done"
                )
                if fresh:
                    queue._append_locked({"op": "predone", "us": fresh})
                return queue
            doc = {
                "format": QUEUE_FORMAT,
                "sweep": sweep,
                "seq": 0,
                "units": {
                    uid: {
                        "state": "done" if uid in done_set else "pending",
                        "worker": None,
                        "expires": 0.0,
                        "attempts": 0,
                    }
                    for uid in ids
                },
                "leases": 0,
                "completions": 0,
                "reissues": 0,
                "workers": {},
            }
            queue._doc = doc
            queue._install_snapshot_locked()
        return queue

    # ------------------------------------------------------------------
    # Snapshot + journal plumbing (every method below holds the lock)
    # ------------------------------------------------------------------
    def _load_snapshot(self) -> dict:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            raise FabricError(f"no work queue at {self.root}") from None
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise FabricError(
                f"unreadable queue manifest {self.path}: {exc}"
            ) from exc
        fmt = doc.get("format")
        if fmt != QUEUE_FORMAT:
            raise FabricError(
                f"queue manifest {self.path} has format {fmt!r}; this "
                f"code reads {QUEUE_FORMAT!r}"
            )
        return doc

    def _sync_locked(self, *, missing_ok: bool = False) -> dict | None:
        """Fold any unseen on-disk state into the cached document.

        One ``stat`` of the snapshot detects compaction by another
        process (``os.replace`` changes the inode), in which case the
        snapshot is reloaded and the journal re-consumed from the top;
        otherwise only the journal's unseen tail is read and replayed.
        """
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            if missing_ok:
                return None
            raise FabricError(f"no work queue at {self.root}") from None
        sig = (st.st_ino, st.st_mtime_ns, st.st_size)
        if self._doc is None or sig != self._snap_sig:
            self._doc = self._load_snapshot()
            self._journal_offset = 0
            self._snap_sig = sig
        self._replay_locked()
        return self._doc

    def _replay_locked(self) -> None:
        """Apply the journal's unseen suffix, healing a torn tail.

        We hold the exclusive lock, so a file that does not end in a
        newline means its last writer died mid-append — never that a
        write is in flight.  Terminating it isolates the torn bytes
        into their own line: if they decode, the record's content hit
        the disk and it replays exactly once (the sequence guard
        forbids a second application); if not, the garbage line is
        skipped, exactly like a torn trial-store segment tail.
        """
        doc = self._doc
        assert doc is not None
        try:
            size = self.journal_path.stat().st_size
        except FileNotFoundError:
            return
        if size <= self._journal_offset:
            return
        with open(self.journal_path, "rb") as fh:
            fh.seek(self._journal_offset)
            data = fh.read()
        if data and not data.endswith(b"\n"):
            with open(self.journal_path, "ab") as fh:
                fh.write(b"\n")
            data += b"\n"
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # healed torn garbage: its op never happened
            if not isinstance(record, dict):
                continue
            seq = record.get("q")
            if not isinstance(seq, int) or seq <= doc["seq"]:
                continue
            self._apply(doc, record)
        self._journal_offset += len(data)

    @staticmethod
    def _apply(doc: dict, record: dict) -> None:
        """Fold one journal record into *doc* (writer and replayer)."""
        op = record.get("op")
        units = doc["units"]
        worker = record.get("w")
        if op == "lease":
            for uid, stolen in record["us"]:
                entry = units[uid]
                entry.update(
                    state="leased",
                    worker=worker,
                    expires=record["exp"],
                    attempts=entry["attempts"] + 1,
                )
                doc["leases"] += 1
                if stolen:
                    doc["reissues"] += 1
            doc["workers"][worker] = record["t"]
        elif op == "hb":
            for entry in units.values():
                if entry["state"] == "leased" and entry["worker"] == worker:
                    entry["expires"] = record["exp"]
            doc["workers"][worker] = record["t"]
        elif op == "done":
            for uid in record["us"]:
                entry = units[uid]
                if entry["state"] != "done":
                    entry.update(state="done", worker=None, expires=0.0)
                    doc["completions"] += 1
            doc["workers"][worker] = record["t"]
        elif op == "rel":
            for uid in record["us"]:
                entry = units.get(uid)
                if (
                    entry is not None
                    and entry["state"] == "leased"
                    and entry["worker"] == worker
                ):
                    entry.update(state="pending", worker=None, expires=0.0)
        elif op == "predone":
            # Resume warm-start: done without a completion (the records
            # were computed by an earlier sweep, not this one).
            for uid in record["us"]:
                entry = units[uid]
                if entry["state"] != "done":
                    entry.update(state="done", worker=None, expires=0.0)
        # Unknown ops are tolerated (forward compatibility) but still
        # advance the sequence, so writer-assigned numbers stay unique.
        doc["seq"] = record["q"]

    def _append_locked(self, body: dict) -> None:
        """Journal one transition: apply in memory, append, maybe compact."""
        doc = self._doc
        assert doc is not None
        record = {"q": doc["seq"] + 1, **body}
        self._apply(doc, record)
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        # The tail was healed by _sync_locked at the top of this
        # operation, so the append starts on a fresh line.
        with open(self.journal_path, "ab") as fh:
            fh.write(line)
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        self._journal_offset += len(line)
        if self._journal_offset >= self.compact_bytes:
            self._install_snapshot_locked()

    def _install_snapshot_locked(self) -> None:
        """Write the cached document as the snapshot; truncate the journal.

        Snapshot first: a crash before the truncation leaves journal
        records whose sequence numbers the fresh snapshot already
        covers — replay skips them.  Both writes go through temp file +
        ``os.replace`` so readers never see a torn file.
        """
        doc = self._doc
        assert doc is not None
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
            fh.flush()
            if self._fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        jtmp = self.journal_path.with_name(
            self.journal_path.name + f".tmp.{os.getpid()}"
        )
        jtmp.write_bytes(b"")
        os.replace(jtmp, self.journal_path)
        self._journal_offset = 0
        st = os.stat(self.path)
        self._snap_sig = (st.st_ino, st.st_mtime_ns, st.st_size)

    def compact(self) -> None:
        """Fold the journal into a fresh snapshot now (maintenance)."""
        with self._mutex, self._lock:
            self._sync_locked()
            self._install_snapshot_locked()

    # ------------------------------------------------------------------
    # Worker operations
    # ------------------------------------------------------------------
    def lease_batch(self, worker: str, k: int, ttl: float) -> list[str]:
        """Lease up to *k* units to *worker* in one commit.

        Pending units go first (FIFO in manifest order — consecutive
        units of one sweep share a sweep point, which lets the worker
        coalesce their seed lanes into one vectorized batch); with none
        left, the oldest *expired* leases are stolen and re-issued.  An
        empty return writes nothing to disk and does not mean the sweep
        is finished — live leases may still fail and come back; pair it
        with :meth:`snapshot` (see the worker loop).
        """
        if k < 1:
            raise FabricError(f"lease batch size must be >= 1, got {k}")
        check_ttl(ttl)
        now = self._clock()
        with self._mutex, self._lock:
            doc = self._sync_locked()
            units = doc["units"]
            chosen: list[tuple[str, int]] = []
            for uid, entry in units.items():
                if len(chosen) >= k:
                    break
                if entry["state"] == "pending":
                    chosen.append((uid, 0))
            if len(chosen) < k:
                expired = sorted(
                    (entry["expires"], uid)
                    for uid, entry in units.items()
                    if entry["state"] == "leased" and entry["expires"] <= now
                )
                for _expiry, uid in expired[: k - len(chosen)]:
                    chosen.append((uid, 1))
            if not chosen:
                return []
            self._append_locked(
                {
                    "op": "lease",
                    "w": worker,
                    "t": now,
                    "exp": now + ttl,
                    "us": chosen,
                }
            )
            return [uid for uid, _stolen in chosen]

    def lease(self, worker: str, ttl: float) -> str | None:
        """Lease one unit to *worker* for *ttl* seconds; ``None`` if none."""
        batch = self.lease_batch(worker, 1, ttl)
        return batch[0] if batch else None

    def heartbeat(self, worker: str, ttl: float) -> int:
        """Extend every lease *worker* holds by *ttl*; returns how many.

        A worker holding no lease is a no-op — nothing changed, so
        nothing is read-modify-written and nothing touches the disk
        beyond the sync itself.  A bad *ttl* raises even then.
        """
        check_ttl(ttl)
        now = self._clock()
        with self._mutex, self._lock:
            doc = self._sync_locked()
            extended = sum(
                1
                for entry in doc["units"].values()
                if entry["state"] == "leased" and entry["worker"] == worker
            )
            if extended == 0:
                return 0
            self._append_locked(
                {"op": "hb", "w": worker, "t": now, "exp": now + ttl}
            )
        return extended

    def complete_batch(self, worker: str, unit_ids: Sequence[str]) -> int:
        """Mark a batch of units done in one commit; returns transitions.

        Idempotent and accepted from any worker, lease or not: the
        units' records are content-addressed, so whoever computed them
        computed *the* records — a thief and a slow original holder
        completing the same unit is the expected race, not an error.
        A batch that transitions nothing (all duplicates) writes
        nothing.
        """
        now = self._clock()
        with self._mutex, self._lock:
            doc = self._sync_locked()
            units = doc["units"]
            for uid in unit_ids:
                if uid not in units:
                    raise FabricError(
                        f"unknown unit {str(uid)[:12]}... completed by "
                        f"{worker!r}"
                    )
            transitions = [
                uid for uid in unit_ids if units[uid]["state"] != "done"
            ]
            if not transitions:
                return 0
            self._append_locked(
                {"op": "done", "w": worker, "t": now, "us": transitions}
            )
            return len(transitions)

    def complete(self, worker: str, unit_id: str) -> bool:
        """Mark *unit_id* done.  Idempotent; returns True on transition."""
        return self.complete_batch(worker, [unit_id]) == 1

    def release(self, worker: str, unit_id: str) -> None:
        """Return a leased unit to pending (worker bailing out cleanly)."""
        with self._mutex, self._lock:
            doc = self._sync_locked()
            entry = doc["units"].get(unit_id)
            if (
                entry is not None
                and entry["state"] == "leased"
                and entry["worker"] == worker
            ):
                self._append_locked({"op": "rel", "w": worker, "us": [unit_id]})

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def snapshot(self) -> QueueSnapshot:
        with self._mutex, self._lock:
            doc = self._sync_locked()
            counts = {state: 0 for state in _STATES}
            leased_by: dict[str, int] = {}
            for entry in doc["units"].values():
                counts[entry["state"]] += 1
                if entry["state"] == "leased":
                    holder = entry["worker"]
                    leased_by[holder] = leased_by.get(holder, 0) + 1
            return QueueSnapshot(
                sweep=doc["sweep"],
                pending=counts["pending"],
                leased=counts["leased"],
                done=counts["done"],
                leases=doc["leases"],
                completions=doc["completions"],
                reissues=doc["reissues"],
                workers=dict(doc["workers"]),
                leased_by=leased_by,
            )

    def finished(self) -> bool:
        return self.snapshot().finished
