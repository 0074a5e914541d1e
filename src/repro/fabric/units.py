"""Work units of a distributed sweep (extraction, identity, compute).

The fabric's unit of distribution is exactly the paired engine's unit
of parallelism: one ``(x_index, seed-chunk)`` block covering *every*
series of a sweep point.  A :class:`WorkUnit` carries the concrete
:class:`~repro.experiments.spec.TrialConfig` of each series plus the
chunk's seed block, so a worker needs no access to the experiment
spec's config factory — units are plain data, picklable and
JSON-serializable (the HTTP transport ships them as documents).

Identity is content-addressed all the way down: every series of a unit
has its :func:`~repro.experiments.runner.cell_chunk_key` (the store
address of its partial result), the unit id is a digest over those
keys, and the sweep id is a digest over the ordered unit ids.  Two
coordinators extracting the same experiment therefore derive the same
unit ids and can share one queue; a worker that recomputes an
already-stored unit appends nothing new (the store skips present
keys); and a finished sweep's merge is simply a warm
``run_experiment(cache=store)`` — bit-identical to a single-process
run by the store's own contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import ExperimentError, FabricError
from ..experiments.context import TrialContext
from ..experiments.runner import (
    _cell_seeds,
    _CellAccumulator,
    cell_chunk_key,
    run_paired_cells,
)
from ..experiments.spec import ExperimentSpec, TrialConfig
from ..kernel.vec import batch_engages, vec_available, vec_enabled
from ..store import TrialStore, store_key

__all__ = [
    "WorkUnit",
    "auto_chunk_size",
    "extract_units",
    "sweep_id",
    "unit_to_dict",
    "unit_from_dict",
    "unit_is_stored",
    "compute_unit",
    "compute_units",
]


@dataclass(frozen=True)
class WorkUnit:
    """One distributable block: every series of one (x, seed-chunk).

    ``keys[i]`` is the store address of the partial result of
    ``cells[i]`` over ``seeds`` — committing those records *is*
    completing the unit, as far as the merge is concerned.
    """

    unit_id: str
    x_index: int
    cells: tuple[tuple[int, TrialConfig], ...]
    seeds: tuple[int, ...]
    keys: tuple[str, ...]


def _unit_id(keys: Sequence[str]) -> str:
    return store_key("fabric-unit", list(keys))


def auto_chunk_size(trials: int) -> int:
    """Vec-aware default seed-chunk width for one work unit.

    A unit is both the granule of distribution *and* the seed batch the
    vectorized kernel gets to fill with lanes, so sizing it too small
    (the historical ``chunk_size=2`` crumbs) starves the batch path and
    multiplies per-unit protocol overhead.  With the vec tier able to
    engage (mode not ``off``, NumPy importable) a unit gets up to 64
    seeds — comfortably past :data:`~repro.kernel.vec.VEC_MIN_LANES`
    with amortization headroom but still fine-grained enough to steal;
    otherwise 32, the paired engine's classic chunk.  Never more than
    *trials* (a chunk cannot outgrow its cell).
    """
    if trials < 1:
        raise FabricError("trials must be at least 1")
    width = 64 if (vec_enabled() and vec_available()) else 32
    return min(trials, width)


def extract_units(
    spec: ExperimentSpec,
    *,
    trials: int,
    seed: int,
    chunk_size: int = 32,
) -> list[WorkUnit]:
    """Shard *spec* into the paired engine's work units, in merge order.

    The enumeration is x-major, seed-chunk-minor, and each unit's keys
    are the :func:`~repro.experiments.runner.cell_chunk_key` addresses
    the experiment planner looks up, so a merge restores every unit
    from the store in the order of an uncached run.
    """
    if trials < 1:
        raise FabricError("trials must be at least 1")
    if chunk_size < 1:
        raise FabricError(f"chunk_size must be at least 1, got {chunk_size}")
    units: list[WorkUnit] = []
    for xi, _x, group in spec.cells_by_x():
        cells = tuple((si, config) for si, _label, config in group)
        seeds = _cell_seeds(seed, xi, trials)
        for lo in range(0, trials, chunk_size):
            chunk = tuple(seeds[lo : lo + chunk_size])
            keys = tuple(
                cell_chunk_key(config, chunk) for _si, config in cells
            )
            units.append(
                WorkUnit(
                    unit_id=_unit_id(keys),
                    x_index=xi,
                    cells=cells,
                    seeds=chunk,
                    keys=keys,
                )
            )
    return units


def sweep_id(
    spec_name: str,
    units: Sequence[WorkUnit],
    *,
    trials: int,
    seed: int,
    chunk_size: int,
) -> str:
    """Content address of one sweep: its ordered unit ids plus shape.

    Everything that determines the merge is covered (units already
    digest the configs and seed blocks), so equal sweep ids mean
    interchangeable manifests — the resume check the work queue makes.
    """
    return store_key(
        "fabric-sweep",
        {
            "name": spec_name,
            "trials": trials,
            "seed": seed,
            "chunk_size": chunk_size,
            "units": [u.unit_id for u in units],
        },
    )


def unit_to_dict(unit: WorkUnit) -> dict[str, Any]:
    """JSON document of one unit (the wire/disk format)."""
    return {
        "unit": unit.unit_id,
        "x_index": unit.x_index,
        "cells": [[si, config.to_dict()] for si, config in unit.cells],
        "seeds": list(unit.seeds),
    }


def unit_from_dict(doc: dict[str, Any]) -> WorkUnit:
    """Rebuild a unit from its document, verifying its content address.

    The chunk keys are *recomputed* from the decoded configs and seeds
    and the unit id is recomputed from those keys; a mismatch with the
    document's claimed id means the payload was corrupted or produced
    by incompatible code (a different :data:`~repro.store.CODE_SALT`),
    and computing it would commit records under wrong addresses.
    """
    try:
        cells = tuple(
            (int(si), TrialConfig.from_dict(config_doc))
            for si, config_doc in doc["cells"]
        )
        seeds = tuple(int(s) for s in doc["seeds"])
        claimed = doc["unit"]
        x_index = int(doc["x_index"])
    except (KeyError, TypeError, ValueError, ExperimentError) as exc:
        raise FabricError(f"malformed work-unit document: {exc}") from exc
    keys = tuple(cell_chunk_key(config, seeds) for _si, config in cells)
    unit_id = _unit_id(keys)
    if unit_id != claimed:
        raise FabricError(
            f"work-unit document id mismatch: claims {claimed[:12]}..., "
            f"content addresses to {unit_id[:12]}... (corrupt payload or "
            "incompatible code salt)"
        )
    return WorkUnit(
        unit_id=unit_id, x_index=x_index, cells=cells, seeds=seeds, keys=keys
    )


def unit_is_stored(store: TrialStore, unit: WorkUnit) -> bool:
    """True when every series' partial of *unit* is already in *store*."""
    return all(key in store for key in unit.keys)


def compute_unit(
    unit: WorkUnit,
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
) -> list[tuple[str, dict[str, Any]]]:
    """Judge one unit; returns its ``(store key, record)`` pairs.

    Exactly the paired engine's arithmetic
    (:func:`~repro.experiments.runner.run_paired_cells` on the same
    cells and seed block), so the committed records are the ones a
    single-process run would have produced.  ``use_kernel``/``use_vec``
    pin the fast-path tiers; the defaults defer to the worker's
    ``REPRO_KERNEL``/``REPRO_VEC`` environment — either way the records
    are bit-identical, a unit is free to be judged by a vectorized
    worker and merged next to scalar ones.
    """
    partials = run_paired_cells(
        list(unit.cells), list(unit.seeds), use_kernel, use_vec
    )
    return [
        (unit.keys[i], cell.to_dict())
        for i, (_si, cell) in enumerate(partials)
    ]


def compute_units(
    units: Sequence[WorkUnit],
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
) -> list[tuple[str, dict[str, Any]]]:
    """Judge a batch of units; returns all their ``(key, record)`` pairs.

    Runs of consecutive units that share one cell tuple (seed chunks of
    the same sweep point — exactly what batched leasing hands out,
    since units are enumerated x-major) are coalesced into a single
    vectorized seed batch: one :func:`~repro.kernel.vec.paired_outcomes`
    array pass covers every lane of every unit in the run, and each
    unit's records are then aggregated from its own lanes through the
    shared :class:`~repro.experiments.runner._CellAccumulator`.  Lanes
    are computed independently in the batch driver and the aggregation
    is the very code :func:`run_paired_cells` uses, so the records are
    bit-identical to computing each unit alone — batching changes the
    protocol cost, never the bytes.  Groups the vec tier does not take
    (:func:`~repro.kernel.vec.batch_engages`) fall back to per-unit
    :func:`compute_unit`.
    """
    results: list[tuple[str, dict[str, Any]]] = []
    i = 0
    while i < len(units):
        group = [units[i]]
        while (
            i + len(group) < len(units)
            and units[i + len(group)].cells == group[0].cells
        ):
            group.append(units[i + len(group)])
        i += len(group)
        cells = list(group[0].cells)
        lanes = sum(len(u.seeds) for u in group)
        if len(group) > 1 and batch_engages(cells, lanes, use_kernel, use_vec):
            from ..kernel.vec import paired_outcomes

            seeds = [s for u in group for s in u.seeds]
            contexts = TrialContext.from_seeds(cells[0][1].workload, seeds)
            outcomes = paired_outcomes(cells, seeds, contexts, use_kernel)
            offset = 0
            for unit in group:
                n = len(unit.seeds)
                accs = {si: _CellAccumulator() for si, _ in cells}
                for sp in range(offset, offset + n):
                    for si, _config in cells:
                        accs[si].add(outcomes[(si, sp)])
                offset += n
                results.extend(
                    (unit.keys[j], accs[si].result(n).to_dict())
                    for j, (si, _config) in enumerate(cells)
                )
            # Free this group's workloads before the next group builds
            # its own: otherwise two groups' worth peak together.
            del contexts, outcomes
        else:
            for unit in group:
                results.extend(compute_unit(unit, use_kernel, use_vec))
    return results
