"""Metrics aggregation behind the service front end.

The front end splits the service's counters between its backend — N
worker processes, or one in-process service — and itself (it owns the
HTTP request/error counters, the follower side of single-flight and
the sweep fabric's counters).  A ``GET /metrics`` scrape must still
read like one service, so the front end collects one
:meth:`~repro.service.metrics.ServiceMetrics.snapshot` document per
worker (over the control pipe) and folds them — together with its own
live counters — into a fresh
:class:`~repro.service.metrics.ServiceMetrics` that renders the usual
exposition.

Merge semantics:

* **Counters** add per label set.  ``computed`` assignments come from
  workers, ``coalesced`` from the front end, ``cache`` from whichever
  worker's LRU/spill answered — the totals obey the same
  ``assignments == cache_hits + cache_misses`` invariant dashboards
  rely on in the single-process exposition.
* **Latency** count/sum add exactly; quantile windows concatenate, so
  merged quantiles approximate the union of each process's most recent
  observations.
* **Store** counters (hits/misses/appends/evictions) add — each worker
  counts its own traffic against the shared spill directory — while
  ``records``/``bytes`` describe the one shared directory, so the
  merge takes the *max* across workers instead of summing copies of
  the same on-disk state.
"""

from __future__ import annotations

from typing import Iterable

from ..store.trialstore import StoreStats
from .metrics import ServiceMetrics

__all__ = ["aggregate_metrics", "merge_store_sections"]


def merge_store_sections(snapshots: Iterable[dict]) -> StoreStats | None:
    """Fold the ``store`` sections of worker snapshots into one view.

    Returns ``None`` when no snapshot carries a store section (the
    pool runs without ``--cache-dir``).
    """
    sections = [doc["store"] for doc in snapshots if "store" in doc]
    if not sections:
        return None
    return StoreStats(
        hits=sum(int(s.get("hits", 0)) for s in sections),
        misses=sum(int(s.get("misses", 0)) for s in sections),
        appends=sum(int(s.get("appends", 0)) for s in sections),
        evictions=sum(int(s.get("evictions", 0)) for s in sections),
        records=max(int(s.get("records", 0)) for s in sections),
        bytes=max(int(s.get("bytes", 0)) for s in sections),
    )


def aggregate_metrics(
    snapshots: Iterable[dict],
    *,
    base: ServiceMetrics | None = None,
) -> ServiceMetrics:
    """Merge worker *snapshots* (and the front end's *base*) into one.

    Returns a fresh :class:`ServiceMetrics` ready to ``render()``; the
    inputs are not mutated.  *base* is the front end's live metrics —
    HTTP request/error/overload counters, coalesced-follower accounting
    and any mounted sweep fabric's counters — folded in as one more
    snapshot; its fabric status provider carries over, so the
    ``repro_fabric_*`` gauges render live.
    """
    snapshots = list(snapshots)
    merged = ServiceMetrics()
    if base is not None:
        merged.merge_snapshot(base.snapshot())
        merged.set_fabric_status_provider(base._fabric_status_provider)
    for doc in snapshots:
        merged.merge_snapshot(doc)
    store = merge_store_sections(snapshots)
    if store is not None:
        merged.set_store_stats_provider(lambda: store)
    return merged
