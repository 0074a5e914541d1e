"""In-process service metrics rendered in Prometheus text format.

Stdlib-only instrumentation for the deadline-assignment service:
monotone counters (optionally labelled), and a sliding-window latency
summary that reports p50/p95/p99 quantiles plus the cumulative
count/sum pair Prometheus expects of a summary.  Quantiles are computed
over the most recent ``window`` observations — a bounded-memory
approximation that tracks current behaviour instead of averaging over
the whole process lifetime.

Everything is lock-guarded and cheap: one counter bump is a dict
update, one latency observation appends to a ring buffer; the O(w log w)
sort happens only when ``/metrics`` is scraped.
"""

from __future__ import annotations

import math
from collections import deque
from threading import Lock
from typing import Iterable

__all__ = ["Counter", "LatencySummary", "ServiceMetrics", "render_prometheus"]

_QUANTILES = (0.5, 0.95, 0.99)


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """Monotone counter with optional label sets.

    ``inc()`` bumps the unlabelled series; ``inc(endpoint="assign")``
    bumps one labelled child.  Rendering emits every child it has seen.
    """

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = Lock()
        self._children: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        # NaN/inf must be rejected too: one poisoned add would corrupt
        # the cumulative series for the rest of the process lifetime.
        if not math.isfinite(amount) or amount < 0.0:
            raise ValueError(
                f"counters can only increase by finite non-negative "
                f"amounts, got {amount!r}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def snapshot(self) -> list:
        """JSON-serializable ``[label_pairs, value]`` rows of every child.

        The wire form worker processes export over the control pipe:
        label pairs are lists (JSON has no tuples) and round-trip
        through :meth:`merge_snapshot` losslessly.
        """
        with self._lock:
            return [
                [[list(pair) for pair in labels], value]
                for labels, value in sorted(self._children.items())
            ]

    def merge_snapshot(self, snapshot: list) -> None:
        """Add another process's :meth:`snapshot` into this counter."""
        for labels, value in snapshot:
            key = tuple(sorted((str(k), str(v)) for k, v in labels))
            with self._lock:
                self._children[key] = self._children.get(key, 0.0) + float(
                    value
                )

    def value(self, **labels: str) -> float:
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            return self._children.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._children.values())

    def render(self) -> list[str]:
        with self._lock:
            children = sorted(self._children.items())
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} counter",
        ]
        if not children:
            children = [((), 0.0)]
        for labels, value in children:
            lines.append(
                f"{self.name}{_format_labels(labels)} {_format_value(value)}"
            )
        return lines


class LatencySummary:
    """Sliding-window latency summary (seconds) with fixed quantiles."""

    def __init__(self, name: str, help_text: str, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.name = name
        self.help_text = help_text
        self._lock = Lock()
        self._recent: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._recent.append(seconds)
            self._count += 1
            self._sum += seconds

    def snapshot(self) -> dict:
        """JSON-serializable state for cross-process aggregation."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "recent": list(self._recent),
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another process's :meth:`snapshot` into this summary.

        Cumulative count/sum add exactly; the quantile windows
        concatenate (bounded by this summary's own window), so merged
        quantiles are an approximation over the union of the most
        recent observations — good enough for a scrape, and the only
        thing possible without per-observation timestamps.
        """
        with self._lock:
            self._count += int(snapshot["count"])
            self._sum += float(snapshot["sum"])
            self._recent.extend(float(v) for v in snapshot["recent"])

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Window quantile by linear interpolation; NaN when empty."""
        with self._lock:
            data = sorted(self._recent)
        return self._quantile_of(data, q)

    @staticmethod
    def _quantile_of(data: list[float], q: float) -> float:
        """Quantile of an already-sorted snapshot; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q:g}")
        if not data:
            return float("nan")
        pos = q * (len(data) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def render(self, quantiles: Iterable[float] = _QUANTILES) -> list[str]:
        # One snapshot under one lock acquisition: quantiles, count, and
        # sum must describe the same instant, or a scrape racing with
        # observe() reports quantiles and totals from different windows.
        with self._lock:
            data = sorted(self._recent)
            count, total = self._count, self._sum
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} summary",
        ]
        for q in quantiles:
            lines.append(
                f'{self.name}{{quantile="{q:g}"}} '
                f"{_format_value(self._quantile_of(data, q))}"
            )
        lines.append(f"{self.name}_count {count}")
        lines.append(f"{self.name}_sum {_format_value(total)}")
        return lines


class ServiceMetrics:
    """The service's metric family, ready to render as one exposition."""

    def __init__(self, latency_window: int = 2048) -> None:
        self.requests = Counter(
            "repro_requests_total",
            "HTTP requests served, by endpoint and status code.",
        )
        self.assignments = Counter(
            "repro_assignments_total",
            "Deadline assignments served, by source (computed|cache).",
        )
        self.cache_hits = Counter(
            "repro_cache_hits_total", "Assignment cache hits."
        )
        self.cache_misses = Counter(
            "repro_cache_misses_total", "Assignment cache misses."
        )
        self.admissions = Counter(
            "repro_admissions_total",
            "Admission verdicts issued, by outcome (admitted|rejected).",
        )
        self.errors = Counter(
            "repro_request_errors_total",
            "Requests rejected or failed, by kind.",
        )
        self.singleflight_waits = Counter(
            "repro_singleflight_waits_total",
            "Requests that coalesced onto an identical in-flight "
            "computation instead of recomputing.",
        )
        self.overloads = Counter(
            "repro_overload_rejections_total",
            "Requests shed with 429 because the work queue was full.",
        )
        self.fabric_leases = Counter(
            "repro_fabric_leases_total",
            "Sweep-fabric work-unit leases issued, by worker.",
        )
        self.fabric_completions = Counter(
            "repro_fabric_completions_total",
            "Sweep-fabric work units completed (first completion only).",
        )
        self.fabric_records = Counter(
            "repro_fabric_records_total",
            "Result records committed to the store through the fabric "
            "endpoint.",
        )
        self.assign_latency = LatencySummary(
            "repro_assign_latency_seconds",
            "End-to-end POST /assign service latency.",
            window=latency_window,
        )
        # Persistent-store instrumentation: a snapshot provider (set by
        # the service when it runs with --cache-dir) is polled at scrape
        # time, so the repro_store_* series always reflect the store's
        # own exact counters instead of a shadow count.
        self._store_stats_provider = None
        self._fabric_status_provider = None

    #: Counter attributes, in exposition order — one registry shared by
    #: render(), snapshot() and merge_snapshot() so a new counter can
    #: never silently drop out of the cross-process aggregation.
    _COUNTER_ATTRS = (
        "requests",
        "assignments",
        "cache_hits",
        "cache_misses",
        "admissions",
        "errors",
        "singleflight_waits",
        "overloads",
        "fabric_leases",
        "fabric_completions",
        "fabric_records",
    )

    def snapshot(self) -> dict:
        """One JSON-serializable document of every counter and summary.

        The export format worker processes send over the control pipe;
        :meth:`merge_snapshot` on an aggregator instance folds any
        number of them into one exposition (see
        :mod:`repro.service.agg`).  Store counters (when a provider is
        attached) ride along as plain numbers.
        """
        doc: dict = {
            "counters": {
                name: getattr(self, name).snapshot()
                for name in self._COUNTER_ATTRS
            },
            "assign_latency": self.assign_latency.snapshot(),
        }
        provider = self._store_stats_provider
        if provider is not None:
            stats = provider()
            doc["store"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "appends": stats.appends,
                "evictions": stats.evictions,
                "records": stats.records,
                "bytes": stats.bytes,
            }
        return doc

    def merge_snapshot(self, doc: dict) -> None:
        """Add one :meth:`snapshot` document into this instance.

        Unknown counter names are ignored (an older worker talking to a
        newer aggregator must not kill the scrape); the store section is
        left to the caller, which owns cross-worker gauge semantics.
        """
        for name, snapshot in doc.get("counters", {}).items():
            counter = getattr(self, name, None)
            if isinstance(counter, Counter):
                counter.merge_snapshot(snapshot)
        latency = doc.get("assign_latency")
        if latency is not None:
            self.assign_latency.merge_snapshot(latency)

    def set_fabric_status_provider(self, provider) -> None:
        """Register a zero-arg callable returning a ``QueueSnapshot``.

        Rendered as ``repro_fabric_units{state=...}`` gauges plus
        re-issue/worker-liveness series on every ``/metrics`` scrape
        (set by the sweep coordinator's HTTP endpoint); pass ``None``
        to detach.
        """
        self._fabric_status_provider = provider

    def _render_fabric(self) -> list[str]:
        provider = self._fabric_status_provider
        if provider is None:
            return []
        snapshot = provider()
        lines = [
            "# HELP repro_fabric_units Sweep work units by state.",
            "# TYPE repro_fabric_units gauge",
        ]
        for state, value in (
            ("pending", snapshot.pending),
            ("leased", snapshot.leased),
            ("done", snapshot.done),
        ):
            lines.append(
                f'repro_fabric_units{{state="{state}"}} '
                f"{_format_value(value)}"
            )
        lines.extend(
            [
                "# HELP repro_fabric_reissues_total Expired leases "
                "re-issued to other workers (work stealing).",
                "# TYPE repro_fabric_reissues_total counter",
                f"repro_fabric_reissues_total "
                f"{_format_value(snapshot.reissues)}",
                "# HELP repro_fabric_workers Workers that have ever "
                "contacted this sweep's queue.",
                "# TYPE repro_fabric_workers gauge",
                f"repro_fabric_workers {_format_value(len(snapshot.workers))}",
                "# HELP repro_fabric_finished Whether every unit of the "
                "sweep is done (0/1).",
                "# TYPE repro_fabric_finished gauge",
                f"repro_fabric_finished {int(snapshot.finished)}",
            ]
        )
        return lines

    def set_store_stats_provider(self, provider) -> None:
        """Register a zero-arg callable returning a ``StoreStats``.

        Rendered as ``repro_store_{hits,misses,appends,evictions}_total``
        counters plus ``repro_store_{records,bytes}`` gauges on every
        ``/metrics`` scrape; pass ``None`` to detach.
        """
        self._store_stats_provider = provider

    def _render_store(self) -> list[str]:
        provider = self._store_stats_provider
        if provider is None:
            return []
        stats = provider()
        lines: list[str] = []
        for name, help_text, value in (
            ("repro_store_hits_total", "Persistent-store hits.", stats.hits),
            (
                "repro_store_misses_total",
                "Persistent-store misses.",
                stats.misses,
            ),
            (
                "repro_store_appends_total",
                "Records appended to the persistent store.",
                stats.appends,
            ),
            (
                "repro_store_evictions_total",
                "Records evicted from the persistent store.",
                stats.evictions,
            ),
        ):
            lines.extend(
                [
                    f"# HELP {name} {help_text}",
                    f"# TYPE {name} counter",
                    f"{name} {_format_value(value)}",
                ]
            )
        for name, help_text, value in (
            (
                "repro_store_records",
                "Records currently in the persistent store.",
                stats.records,
            ),
            (
                "repro_store_bytes",
                "On-disk size of the persistent store's segments.",
                stats.bytes,
            ),
        ):
            lines.extend(
                [
                    f"# HELP {name} {help_text}",
                    f"# TYPE {name} gauge",
                    f"{name} {_format_value(value)}",
                ]
            )
        return lines

    def cache_hit_rate(self) -> float:
        hits = self.cache_hits.total()
        total = hits + self.cache_misses.total()
        return hits / total if total else 0.0

    def render(self) -> str:
        lines: list[str] = []
        for name in self._COUNTER_ATTRS:
            lines.extend(getattr(self, name).render())
        lines.extend(
            [
                "# HELP repro_cache_hit_rate Assignment cache hit rate "
                "(hits / lookups).",
                "# TYPE repro_cache_hit_rate gauge",
                f"repro_cache_hit_rate {_format_value(self.cache_hit_rate())}",
            ]
        )
        lines.extend(self._render_store())
        lines.extend(self._render_fabric())
        lines.extend(self.assign_latency.render())
        return "\n".join(lines) + "\n"


def render_prometheus(metrics: ServiceMetrics) -> str:
    """Render *metrics* as a Prometheus text-format exposition."""
    return metrics.render()
