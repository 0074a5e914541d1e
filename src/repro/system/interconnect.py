"""Interconnection-network communication-cost models (§3.1).

The paper assumes asynchronous communication (overlapping computation)
whose worst-case cost is a *nominal*, upper-bounded, predictable delay:
``cost = message_size × per-item delay`` between distinct processors and
zero within a processor (shared memory).  :class:`SharedBus` implements
exactly that model and is the default everywhere.

Two richer models are provided as extensions:

* :class:`LinkTopology` — an arbitrary network of dedicated links where
  the nominal delay is accumulated over the cheapest route;
* :class:`ContentionBus` — a stateful time-multiplexed bus that
  serializes transfers, exposing how much the contention-free nominal
  assumption flatters the schedule (ablation `abl-ccr` in DESIGN.md).
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from typing import Iterable

from ..errors import PlatformError
from ..types import ProcessorId, Time

__all__ = [
    "CommunicationModel",
    "ZeroCost",
    "SharedBus",
    "LinkTopology",
    "ContentionBus",
]


class CommunicationModel(ABC):
    """Worst-case cost of shipping a message between two processors."""

    @abstractmethod
    def cost(self, src: ProcessorId, dst: ProcessorId, message_size: float) -> Time:
        """Nominal delay for *message_size* items from *src* to *dst*.

        Must return ``0`` when ``src == dst`` (intra-processor
        communication goes through shared memory, §3.1).
        """

    def reset(self) -> None:
        """Clear any per-schedule state (no-op for stateless models)."""

    def transfer(
        self, src: ProcessorId, dst: ProcessorId, message_size: float, ready: Time
    ) -> Time:
        """Completion time of a transfer whose data is ready at *ready*.

        Stateless models simply add the nominal cost; contention-aware
        models may additionally queue behind earlier transfers.
        """
        return ready + self.cost(src, dst, message_size)


class ZeroCost(CommunicationModel):
    """Communication is free (homogeneous shared-memory idealization)."""

    def cost(self, src: ProcessorId, dst: ProcessorId, message_size: float) -> Time:
        return 0.0


class SharedBus(CommunicationModel):
    """Time-multiplexed shared bus with a fixed per-item nominal delay.

    This is the model of the paper's experimental platform (§5.1): "the
    communication cost between two processors is one time unit per
    transmitted data item".
    """

    def __init__(self, per_item_delay: Time = 1.0) -> None:
        if not (0.0 <= per_item_delay < math.inf):
            raise PlatformError("per-item delay must be non-negative and finite")
        self.per_item_delay = float(per_item_delay)

    def cost(self, src: ProcessorId, dst: ProcessorId, message_size: float) -> Time:
        if src == dst:
            return 0.0
        return message_size * self.per_item_delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedBus(per_item_delay={self.per_item_delay:g})"


class LinkTopology(CommunicationModel):
    """Arbitrary topology of dedicated links with per-item delays.

    The nominal cost between two processors is the message size times
    the cheapest accumulated per-item delay over any route (Dijkstra,
    cached per source).  Disconnected processor pairs cannot exchange
    messages and raise :class:`PlatformError`.
    """

    def __init__(self, links: Iterable[tuple[str, str, Time]]) -> None:
        self._adj: dict[str, dict[str, float]] = {}
        for a, b, delay in links:
            if not (0.0 <= delay < math.inf):
                raise PlatformError("link delay must be non-negative and finite")
            if a == b:
                raise PlatformError("self-links are not allowed")
            self._adj.setdefault(a, {})
            self._adj.setdefault(b, {})
            # Keep the cheapest delay for duplicate link declarations.
            cur = self._adj[a].get(b)
            if cur is None or delay < cur:
                self._adj[a][b] = float(delay)
                self._adj[b][a] = float(delay)
        self._dist_cache: dict[str, dict[str, float]] = {}

    def _distances_from(self, src: str) -> dict[str, float]:
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        dist = {src: 0.0}
        heap: list[tuple[float, str]] = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nbr, w in self._adj.get(node, {}).items():
                nd = d + w
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        self._dist_cache[src] = dist
        return dist

    def per_item_delay(self, src: str, dst: str) -> Time:
        """Cheapest accumulated per-item delay between two processors."""
        if src == dst:
            return 0.0
        dist = self._distances_from(src)
        if dst not in dist:
            raise PlatformError(
                f"processors {src!r} and {dst!r} are not connected"
            )
        return dist[dst]

    def cost(self, src: ProcessorId, dst: ProcessorId, message_size: float) -> Time:
        if src == dst:
            return 0.0
        return message_size * self.per_item_delay(src, dst)


class ContentionBus(CommunicationModel):
    """Shared bus that *serializes* transfers (stateful extension).

    Unlike :class:`SharedBus`, concurrent transfers queue: a transfer
    ready at time *t* starts at ``max(t, bus_free)`` and occupies the
    bus for ``size × per_item_delay``.  :meth:`reset` must be called
    between schedules.  The model is deliberately simple — FCFS in
    reservation order — because its purpose is the ablation comparing
    the paper's contention-free nominal delay against a pessimistic
    serialized bus.
    """

    def __init__(self, per_item_delay: Time = 1.0) -> None:
        if not (0.0 <= per_item_delay < math.inf):
            raise PlatformError("per-item delay must be non-negative and finite")
        self.per_item_delay = float(per_item_delay)
        self._busy_until: Time = 0.0

    def cost(self, src: ProcessorId, dst: ProcessorId, message_size: float) -> Time:
        if src == dst:
            return 0.0
        return message_size * self.per_item_delay

    def reset(self) -> None:
        self._busy_until = 0.0

    @property
    def busy_until(self) -> Time:
        """Time at which the bus next becomes idle."""
        return self._busy_until

    def transfer(
        self, src: ProcessorId, dst: ProcessorId, message_size: float, ready: Time
    ) -> Time:
        if src == dst or message_size <= 0.0:
            return ready
        start = max(ready, self._busy_until)
        finish = start + self.cost(src, dst, message_size)
        self._busy_until = finish
        return finish
