"""Persistent, content-addressed result store (trial cells, assignments).

Deterministic seeds plus canonical serialization make every trial (and
every service assignment) a pure function of its digested inputs, so
results can be memoized *durably*: a warm re-run of a sweep, a resumed
interrupted sweep, or a delta sweep that adds one series to an existing
grid all skip the work that is already on disk — while staying
bit-identical to uncached execution, because the store holds the exact
aggregates the engine would have produced.

Layout of a store directory::

    <root>/
      MANIFEST.json        # format marker + salt provenance (atomic rename)
      .lock                # cross-process append/compact lock
      segments/
        <hh>.jsonl         # append-only JSONL segment, hh = key[:2]

Records are one JSON object per line, ``{"k": <sha256 hex>, "v": ...}``,
sharded by the first two hex digits of the key.  Appends happen under an
exclusive :class:`~repro.store.filelock.FileLock`, so concurrent
processes (``jobs > 1`` sweeps, a sweep racing a service) interleave
whole lines and never corrupt each other; duplicate appends of the same
key are harmless because content addressing guarantees equal values
(last one wins on load).  :meth:`TrialStore.compact` rewrites segments
through a temp file + ``os.replace`` — readers always see either the
old or the new segment, never a torn one — deduplicating records and,
with ``max_bytes``, evicting the oldest records first.

Keys come from :func:`store_key`: a SHA-256 over the canonical JSON of
``(format, salt, kind, payload)``.  The *salt* folds the schema and
code version into the address — bump :data:`CODE_SALT` whenever trial
semantics change (generator, slicing, scheduling, aggregation) and
every stale entry silently stops matching, no migration needed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable

from ..errors import StoreError
from .filelock import FileLock

__all__ = ["TrialStore", "StoreStats", "store_key", "CODE_SALT", "FORMAT"]

FORMAT = "repro.trialstore/1"

#: Schema+code salt folded into every experiment-record key.  Bump when
#: the meaning of a stored record changes — new trial semantics, a
#: different aggregation, a generator fix — so old entries stop
#: matching instead of being served stale.
CODE_SALT = "trial-semantics/2"

_SHARD_CHARS = 2


def store_key(kind: str, payload: Any, *, salt: str = CODE_SALT) -> str:
    """Content address of one record: SHA-256 of its canonical JSON.

    *payload* must be JSON-serializable with finite numbers only (the
    canonical form rejects NaN/Infinity so every writer derives the
    same bytes).  *kind* namespaces record families ("cell-chunk",
    "assignment", ...); *salt* versions the producing code.
    """
    doc = {"format": FORMAT, "salt": salt, "kind": kind, "payload": payload}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


class StoreStats:
    """Immutable snapshot of one store's counters.

    ``records``/``bytes`` describe current contents (keys known in
    memory, on-disk segment bytes); the rest are monotone counters over
    the store object's lifetime.
    """

    __slots__ = ("hits", "misses", "appends", "evictions", "records", "bytes")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        appends: int = 0,
        evictions: int = 0,
        records: int = 0,
        bytes: int = 0,
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.appends = appends
        self.evictions = evictions
        self.records = records
        self.bytes = bytes

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def since(self, earlier: "StoreStats") -> "StoreStats":
        """Counter deltas relative to an *earlier* snapshot.

        ``records``/``bytes`` stay absolute (they are states, not
        counters) — the result answers "what did this run do".
        """
        return StoreStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            appends=self.appends - earlier.appends,
            evictions=self.evictions - earlier.evictions,
            records=self.records,
            bytes=self.bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreStats(hits={self.hits}, misses={self.misses}, "
            f"appends={self.appends}, evictions={self.evictions}, "
            f"records={self.records}, bytes={self.bytes})"
        )


class TrialStore:
    """Content-addressed persistent key → JSON-document store.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.
    max_bytes:
        Optional on-disk budget.  Checked on open and on
        :meth:`compact`: when segments exceed it, the oldest records
        are evicted (compaction rewrites the segments atomically).
    fsync:
        Force appends to stable storage before releasing the lock.
        Off by default — the store is a cache; a truncated tail line
        after a crash is skipped on load, costing a recompute.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int | None = None,
        fsync: bool = False,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._fsync = fsync
        self._segments = self.root / "segments"
        self._segments.mkdir(parents=True, exist_ok=True)
        self._lock = FileLock(self.root / ".lock")
        self._mutex = threading.RLock()
        self._maps: dict[str, dict[str, Any]] = {}
        self._offsets: dict[str, int] = {}
        self._hits = 0
        self._misses = 0
        self._appends = 0
        self._evictions = 0
        self._closed = False
        self._check_manifest()
        if max_bytes is not None and self.total_bytes() > max_bytes:
            self.compact(max_bytes=max_bytes)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _check_manifest(self) -> None:
        path = self.root / "MANIFEST.json"
        if path.exists():
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store manifest {path}: {exc}") from exc
            fmt = doc.get("format")
            if fmt != FORMAT:
                raise StoreError(
                    f"store at {self.root} has format {fmt!r}; this code "
                    f"reads {FORMAT!r}"
                )
            return
        self._write_atomic(
            path,
            json.dumps(
                {"format": FORMAT, "shard_chars": _SHARD_CHARS}, indent=2
            )
            + "\n",
        )

    def _write_atomic(self, path: Path, text: str) -> None:
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_of(key: str) -> str:
        if len(key) <= _SHARD_CHARS:
            raise StoreError(f"malformed store key {key!r}")
        return key[:_SHARD_CHARS]

    def _shard_path(self, shard: str) -> Path:
        return self._segments / f"{shard}.jsonl"

    def _refresh(self, shard: str) -> dict[str, Any]:
        """Bring one shard's in-memory map up to date with the file.

        Reads only the unseen tail (``offset`` → EOF).  A trailing
        partial line — a writer crashed mid-append — is left unconsumed
        and skipped if undecodable; whole-line appends under the file
        lock guarantee everything before it is intact.
        """
        mapping = self._maps.setdefault(shard, {})
        offset = self._offsets.get(shard, 0)
        path = self._shard_path(shard)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return mapping
        if size <= offset:
            return mapping
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
        consumed = data.rfind(b"\n") + 1
        for line in data[:consumed].splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                mapping[record["k"]] = record["v"]
            except (ValueError, KeyError, TypeError):
                continue  # torn or foreign line: treat as a miss
        self._offsets[shard] = offset + consumed
        return mapping

    def get(self, key: str) -> Any | None:
        """Look up *key*; ``None`` on miss.  Sees other processes' appends."""
        shard = self._shard_of(key)
        with self._mutex:
            mapping = self._maps.get(shard)
            if mapping is None or key not in mapping:
                mapping = self._refresh(shard)
            value = mapping.get(key)
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
            return value

    def __contains__(self, key: str) -> bool:
        shard = self._shard_of(key)
        with self._mutex:
            return key in self._refresh(shard)

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Insert one record (no-op if *key* is already present)."""
        self.put_many([(key, value)])

    def put_many(self, items: Iterable[tuple[str, Any]]) -> int:
        """Append a batch of records under one lock acquisition.

        Keys already present are skipped — content addressing makes a
        second value for the same key identical by construction, so
        rewriting it would only grow the segment.  Returns the number
        of records actually appended.
        """
        batch = [(k, v) for k, v in items]
        if not batch:
            return 0
        if self._closed:
            raise StoreError(f"store at {self.root} is closed")
        appended = 0
        with self._mutex, self._lock:
            # Group by shard first so each touched shard is refreshed
            # (one stat + unseen-tail read) exactly once per batch, not
            # once per key — group commits land thousands of records of
            # a few shards.
            grouped: dict[str, list[tuple[str, Any]]] = {}
            for key, value in batch:
                grouped.setdefault(self._shard_of(key), []).append(
                    (key, value)
                )
            by_shard: dict[str, list[tuple[str, Any]]] = {}
            for shard, pairs in grouped.items():
                mapping = self._refresh(shard)
                for key, value in pairs:
                    if key in mapping:
                        continue
                    by_shard.setdefault(shard, []).append((key, value))
                    mapping[key] = value
            for shard, records in by_shard.items():
                text = "".join(
                    json.dumps({"k": k, "v": v}, separators=(",", ":")) + "\n"
                    for k, v in records
                )
                encoded = text.encode()
                path = self._shard_path(shard)
                # Heal a torn tail before appending: a writer killed
                # mid-append leaves a partial line with no newline, and
                # appending straight after it would glue the first new
                # record onto the garbage — losing that record to every
                # reader.  A leading newline isolates the torn bytes
                # into their own (skipped) line instead.
                size = 0
                torn_tail = False
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    pass
                if size > 0:
                    with open(path, "rb") as fh:
                        fh.seek(-1, os.SEEK_END)
                        torn_tail = fh.read(1) != b"\n"
                with open(path, "ab") as fh:
                    if torn_tail:
                        fh.write(b"\n")
                    fh.write(encoded)
                    fh.flush()
                    if self._fsync:
                        os.fsync(fh.fileno())
                # We held the exclusive lock from refresh through write,
                # so everything up to the new EOF is either consumed,
                # torn garbage, or ours: mark it all consumed.
                self._offsets[shard] = (
                    size + (1 if torn_tail else 0) + len(encoded)
                )
                appended += len(records)
            self._appends += appended
        return appended

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_disk_shards(self) -> list[str]:
        return sorted(
            p.stem
            for p in self._segments.glob("*.jsonl")
            if len(p.stem) == _SHARD_CHARS
        )

    def total_bytes(self) -> int:
        """Current on-disk size of all segments."""
        return sum(
            p.stat().st_size for p in self._segments.glob("*.jsonl")
        )

    def verify(self) -> dict[str, int]:
        """Integrity scan of every segment; returns a counts report.

        Reads the raw segment bytes under the store lock (so no writer
        is mid-append) and classifies every line:

        * ``records`` — well-formed ``{"k": ..., "v": ...}`` lines;
        * ``duplicates`` — records whose key appeared earlier (benign:
          compaction removes them);
        * ``misplaced`` — records whose key does not match the shard
          file they sit in (never served; a sign of hand-edited
          segments);
        * ``torn`` — an unterminated trailing line (a writer crashed
          mid-append; healed automatically by the next append, dropped
          by compaction);
        * ``invalid`` — undecodable interior lines (real corruption).

        Purely read-only; pair with :meth:`compact` to repair.
        """
        report = {
            "shards": 0,
            "records": 0,
            "unique": 0,
            "duplicates": 0,
            "misplaced": 0,
            "torn": 0,
            "invalid": 0,
            "bytes": 0,
        }
        with self._mutex, self._lock:
            for shard in self._on_disk_shards():
                try:
                    data = self._shard_path(shard).read_bytes()
                except FileNotFoundError:  # pragma: no cover - racy unlink
                    continue
                report["shards"] += 1
                report["bytes"] += len(data)
                torn_tail = bool(data) and not data.endswith(b"\n")
                lines = data.split(b"\n")
                seen: set[str] = set()
                for i, line in enumerate(lines):
                    if not line.strip():
                        continue
                    last = i == len(lines) - 1
                    try:
                        record = json.loads(line)
                        key = record["k"]
                        record["v"]
                    except (ValueError, KeyError, TypeError):
                        if last and torn_tail:
                            report["torn"] += 1
                        else:
                            report["invalid"] += 1
                        continue
                    report["records"] += 1
                    if not isinstance(key, str) or not key.startswith(shard):
                        report["misplaced"] += 1
                    if key in seen:
                        report["duplicates"] += 1
                    else:
                        seen.add(key)
                        report["unique"] += 1
        return report

    def compact(self, max_bytes: int | None = None) -> int:
        """Rewrite every segment deduplicated; optionally evict to budget.

        Each segment is rewritten through a temp file and ``os.replace``
        — atomic on POSIX, so a concurrent reader sees the old or the
        new file, never a prefix.  With *max_bytes* (or the store's own
        ``max_bytes``), the oldest records of the largest segments are
        dropped first until the store fits.  Returns the number of
        evicted records.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        evicted = 0
        with self._mutex, self._lock:
            lines: dict[str, list[bytes]] = {}
            for shard in self._on_disk_shards():
                self._offsets[shard] = 0
                self._maps[shard] = {}
                mapping = self._refresh(shard)
                lines[shard] = [
                    json.dumps({"k": k, "v": v}, separators=(",", ":")).encode()
                    + b"\n"
                    for k, v in mapping.items()
                ]
            sizes = {s: sum(len(l) for l in ls) for s, ls in lines.items()}
            if budget is not None:
                while sum(sizes.values()) > budget and any(lines.values()):
                    shard = max(sizes, key=lambda s: sizes[s])
                    dropped = lines[shard].pop(0)  # oldest record first
                    sizes[shard] -= len(dropped)
                    key = json.loads(dropped)["k"]
                    del self._maps[shard][key]
                    evicted += 1
            for shard, shard_lines in lines.items():
                path = self._shard_path(shard)
                if not shard_lines:
                    path.unlink(missing_ok=True)
                    self._offsets[shard] = 0
                    continue
                tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
                with open(tmp, "wb") as fh:
                    fh.write(b"".join(shard_lines))
                    fh.flush()
                    if self._fsync:
                        os.fsync(fh.fileno())
                os.replace(tmp, path)
                self._offsets[shard] = sizes[shard]
            self._evictions += evicted
        return evicted

    def stats(self) -> StoreStats:
        with self._mutex:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                appends=self._appends,
                evictions=self._evictions,
                records=sum(len(m) for m in self._maps.values()),
                bytes=self.total_bytes(),
            )

    def close(self) -> None:
        """Mark the store closed; enforce ``max_bytes`` one last time."""
        if self._closed:
            return
        if self.max_bytes is not None and self.total_bytes() > self.max_bytes:
            self.compact(max_bytes=self.max_bytes)
        self._closed = True

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrialStore({str(self.root)!r}, {self.stats()!r})"
