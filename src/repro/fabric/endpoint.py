"""HTTP face of the fabric: lease/commit endpoints for remote workers.

Mounted on the :mod:`repro.service` front end (``frontend.fabric =
coordinator.endpoint(metrics=frontend.metrics)``, as ``repro sweep
--serve`` does), this turns the coordinator's store directory into a
*served store*: remote workers never see the filesystem — they pull
unit payloads from ``POST /fabric/lease`` and push result records to
``POST /fabric/complete``, and the endpoint appends them to the shared
:class:`~repro.store.TrialStore` on their behalf.

Routes (JSON in/out, errors as ``{"error": ...}`` with 4xx):

==========================  ==========================================
``POST /fabric/lease``      ``{worker, ttl?, max?}`` →
                            ``{units, finished}`` — up to ``max`` unit
                            payloads per call (batched leasing)
``POST /fabric/complete``   ``{worker, units, records}`` →
                            ``{done, appended, finished}`` — one group
                            commit for a whole batch: records append
                            before any done mark; ``done`` counts the
                            units it newly marked done
``POST /fabric/heartbeat``  ``{worker, ttl?}`` → ``{extended}``
``POST /fabric/release``    ``{worker, units}`` → ``{}``
``GET  /fabric/status``     → queue snapshot (counts, workers, finished)
==========================  ==========================================

Integrity: a completion may only commit records whose keys belong to
the named unit (each unit's key set is fixed at extraction), so a
confused or malicious worker cannot poison unrelated store entries;
values are committed verbatim — content addressing makes a wrong value
under a right key detectable only by recompute, which is why keys are
derived server-side, never trusted from the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import FabricCoordinator

__all__ = ["FabricEndpoint"]

#: Bounds on worker-supplied lease TTLs (seconds): long enough for a
#: slow unit between heartbeats, short enough that a dead worker's
#: units come back promptly.
_MIN_TTL, _MAX_TTL = 0.1, 3600.0

#: Cap on units per lease reply — bounds reply size and keeps one
#: worker from draining a whole sweep in a single call.
_MAX_BATCH = 256


class FabricEndpoint:
    """Request handlers for ``/fabric/*`` over one coordinator's sweep."""

    def __init__(
        self, coordinator: "FabricCoordinator", *, metrics: Any = None
    ) -> None:
        self.coordinator = coordinator
        self.queue = coordinator.queue
        self.store = coordinator.store
        self._unit_docs: dict[str, dict[str, Any]] = {}
        self._unit_keys: dict[str, frozenset[str]] = {}
        from .units import unit_to_dict

        for unit in coordinator.units:
            self._unit_docs[unit.unit_id] = unit_to_dict(unit)
            self._unit_keys[unit.unit_id] = frozenset(unit.keys)
        self.metrics = metrics
        if metrics is not None and hasattr(
            metrics, "set_fabric_status_provider"
        ):
            metrics.set_fabric_status_provider(self.queue.snapshot)

    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, doc: Any
    ) -> tuple[int, dict[str, Any]]:
        """Dispatch one ``/fabric/*`` request; returns (status, body).

        :class:`FabricError` means a bad request (the HTTP layer maps
        it to 400); unknown routes return 404 here so the front end
        stays route-agnostic.
        """
        if method == "GET" and path == "/fabric/status":
            return 200, self.queue.snapshot().to_dict()
        if method == "POST" and path == "/fabric/lease":
            return self._lease(self._as_doc(doc))
        if method == "POST" and path == "/fabric/complete":
            return self._complete(self._as_doc(doc))
        if method == "POST" and path == "/fabric/heartbeat":
            return self._heartbeat(self._as_doc(doc))
        if method == "POST" and path == "/fabric/release":
            return self._release(self._as_doc(doc))
        return 404, {"error": f"unknown fabric route {method} {path}"}

    # ------------------------------------------------------------------
    @staticmethod
    def _as_doc(doc: Any) -> dict[str, Any]:
        if not isinstance(doc, dict):
            raise FabricError("fabric request body must be a JSON object")
        return doc

    @staticmethod
    def _worker_of(doc: dict[str, Any]) -> str:
        worker = doc.get("worker")
        if not isinstance(worker, str) or not worker:
            raise FabricError("request needs a non-empty 'worker' id")
        return worker

    def _ttl_of(self, doc: dict[str, Any]) -> float:
        """The request's TTL clamped into bounds (NaN stays NaN, which
        the queue refuses)."""
        ttl = doc.get("ttl", self.coordinator.lease_ttl)
        try:
            ttl = float(ttl)
        except (TypeError, ValueError):
            raise FabricError(f"bad lease ttl {ttl!r}") from None
        return min(max(ttl, _MIN_TTL), _MAX_TTL)

    def _units_of(self, doc: dict[str, Any]) -> list[str]:
        """The unit ids a complete/release names."""
        unit_ids = doc.get("units")
        if not isinstance(unit_ids, list) or not all(
            isinstance(uid, str) for uid in unit_ids
        ):
            raise FabricError("'units' must be a list of unit ids")
        for unit_id in unit_ids:
            if unit_id not in self._unit_keys:
                raise FabricError(f"unknown unit {str(unit_id)[:12]!r}...")
        return unit_ids

    # ------------------------------------------------------------------
    def _lease(self, doc: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        worker = self._worker_of(doc)
        ttl = self._ttl_of(doc)
        k = doc.get("max", 1)
        if not isinstance(k, int) or k < 1:
            raise FabricError(f"bad lease batch size {k!r}")
        unit_ids = self.queue.lease_batch(worker, min(k, _MAX_BATCH), ttl)
        if not unit_ids:
            return 200, {"units": [], "finished": self.queue.finished()}
        if self.metrics is not None:
            self.metrics.fabric_leases.inc(len(unit_ids), worker=worker)
        docs = [self._unit_docs[uid] for uid in unit_ids]
        return 200, {"units": docs, "finished": False}

    def _complete(self, doc: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        worker = self._worker_of(doc)
        unit_ids = self._units_of(doc)
        allowed = frozenset().union(
            *(self._unit_keys[uid] for uid in unit_ids)
        )
        raw = doc.get("records", [])
        if not isinstance(raw, list):
            raise FabricError("'records' must be a list of [key, value]")
        records: list[tuple[str, Any]] = []
        for entry in raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise FabricError("'records' must be a list of [key, value]")
            key, value = entry
            if key not in allowed:
                raise FabricError(
                    f"record key {str(key)[:12]!r}... does not belong to "
                    "the completed unit(s)"
                )
            records.append((key, value))
        # Group commit: the batch's records land before any done mark.
        appended = self.store.put_many(records)
        transitions = self.queue.complete_batch(worker, unit_ids)
        if self.metrics is not None:
            if transitions:
                self.metrics.fabric_completions.inc(transitions)
            if appended:
                self.metrics.fabric_records.inc(appended)
        return 200, {
            "done": transitions,
            "appended": appended,
            "finished": self.queue.finished(),
        }

    def _heartbeat(self, doc: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        worker = self._worker_of(doc)
        extended = self.queue.heartbeat(worker, self._ttl_of(doc))
        return 200, {"extended": extended}

    def _release(self, doc: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        worker = self._worker_of(doc)
        for unit_id in self._units_of(doc):
            self.queue.release(worker, unit_id)
        return 200, {}
