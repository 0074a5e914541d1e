"""Content-addressed LRU cache for deadline assignments.

The service keys entries by :func:`repro.service.api.request_digest` —
a SHA-256 over the canonical JSON of the assignment-determining inputs
— so two clients submitting the same workload in different key order,
task order or metric spelling share one entry.  Deadline distribution
is deterministic in those inputs, which is what makes caching sound.

The cache is a plain lock-guarded ordered dict: the slicing hot path it
shortcuts is O(n³) in the worst case, so the few hundred nanoseconds of
locking are noise, and a single lock keeps the hit/miss/eviction
counters exact under concurrent request threads.

An optional *spill* backend (:class:`StoreSpill` over a
:class:`repro.store.TrialStore`) turns the LRU into the hot tier of a
two-tier cache: every insert is also persisted, and a memory miss
consults the durable tier before giving up — so evicted entries come
back without recomputation and a restarted service
(``repro serve --cache-dir``) starts warm.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any, Callable, Generic, TypeVar

from ..errors import ValidationError
from ..store import TrialStore, store_key

__all__ = ["AssignmentCache", "CacheStats", "StoreSpill"]

V = TypeVar("V")


class StoreSpill(Generic[V]):
    """Durable second tier for :class:`AssignmentCache`.

    Adapts a :class:`~repro.store.TrialStore` to the cache's spill
    protocol: values are encoded to JSON documents on save and decoded
    on load.  The store key wraps the cache key (a request digest) with
    the record *kind* and *salt*, so assignment records never collide
    with trial records sharing the same store directory, and bumping
    the salt invalidates persisted assignments when their semantics
    change.
    """

    def __init__(
        self,
        store: TrialStore,
        *,
        encode: Callable[[V], Any],
        decode: Callable[[Any], V],
        kind: str = "assignment",
        salt: str = "assignment/1",
    ) -> None:
        self.store = store
        self._encode = encode
        self._decode = decode
        self._kind = kind
        self._salt = salt

    def _key(self, key: str) -> str:
        return store_key(self._kind, {"digest": key}, salt=self._salt)

    def load(self, key: str) -> V | None:
        doc = self.store.get(self._key(key))
        return None if doc is None else self._decode(doc)

    def save(self, key: str, value: V) -> None:
        self.store.put(self._key(key), self._encode(value))


class CacheStats:
    """Immutable snapshot of one cache's counters."""

    __slots__ = ("hits", "misses", "evictions", "size", "maxsize")

    def __init__(
        self, hits: int, misses: int, evictions: int, size: int, maxsize: int
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.size = size
        self.maxsize = maxsize

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, size={self.size}/{self.maxsize})"
        )


class AssignmentCache(Generic[V]):
    """Thread-safe LRU cache from content digest to computed value.

    Parameters
    ----------
    maxsize:
        Entry budget; the least-recently-used entry is evicted when a
        new key would exceed it.  Must be at least 1.
    spill:
        Optional durable tier (:class:`StoreSpill`).  Inserts write
        through to it; memory misses consult it before reporting a
        miss, restoring found entries into the LRU.  A spill hit counts
        as a cache hit — callers see one two-tier cache.
    """

    def __init__(
        self, maxsize: int = 1024, *, spill: "StoreSpill[V] | None" = None
    ) -> None:
        if maxsize < 1:
            raise ValidationError(
                f"cache maxsize must be at least 1, got {maxsize}"
            )
        self.maxsize = maxsize
        self.spill = spill
        self._entries: OrderedDict[str, V] = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> V | None:
        """Look up *key*, refreshing its recency; ``None`` on miss.

        With a spill tier, a memory miss falls through to the durable
        store; a record found there is decoded, promoted back into the
        LRU, and counted as a hit (the restore path that makes
        ``repro serve --cache-dir`` start warm after a restart).
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            if self.spill is not None:
                value = self.spill.load(key)
                if value is not None:
                    self._insert(key, value)
                    self._hits += 1
                    return value
            self._misses += 1
            return None

    def get_hot(self, key: str) -> V | None:
        """*key*'s in-memory value, counted as a hit; ``None`` otherwise.

        Never touches the spill tier and never waits on the lock, which
        :meth:`get` and :meth:`put` hold across spill I/O; so the event
        loop may call it.  ``None`` books no miss: the caller falls back
        to :meth:`get`, which books one.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            return value
        finally:
            self._lock.release()

    def _insert(self, key: str, value: V) -> None:
        """Insert under the held lock, evicting LRU entries as needed."""
        while len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = value

    def put(self, key: str, value: V) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry if full.

        Writes through to the spill tier (if any): eviction from the
        LRU then only drops the memory copy, and a later miss restores
        the entry from disk instead of recomputing it.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
            else:
                self._insert(key, value)
            if self.spill is not None:
                self.spill.save(key, value)

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
            )

    def keys(self) -> list[str]:
        """Current keys, least- to most-recently used (for diagnostics)."""
        with self._lock:
            return list(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AssignmentCache({self.stats()!r})"
