"""Unit extraction, content addressing, and wire round-trips.

The fabric's correctness rests on units being *exactly* the paired
engine's partition (same keys, same order) and on identity being
recomputed — never trusted — when a unit document crosses a process
or network boundary.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.errors import FabricError
from repro.experiments.runner import (
    _cell_seeds,
    cell_chunk_key,
    run_experiment,
)
from repro.fabric import (
    compute_unit,
    compute_units,
    extract_units,
    sweep_id,
    unit_from_dict,
    unit_is_stored,
    unit_to_dict,
)
from repro.kernel.compiled import CompiledWorkload
from repro.store import TrialStore

from .conftest import make_spec


class TestExtraction:
    def test_units_cover_every_cell_chunk_exactly_once(self, spec):
        units = extract_units(spec, trials=10, seed=7, chunk_size=4)
        # 2 x-values, chunks of 4/4/2 → 6 units, each carrying 2 series.
        assert len(units) == 6
        seen = set()
        for unit in units:
            assert len(unit.cells) == len(spec.series)
            assert len(unit.keys) == len(unit.cells)
            seen.update(unit.keys)
        assert len(seen) == 12  # no key shared between units

    def test_keys_match_the_engines_store_addresses(self, spec):
        units = extract_units(spec, trials=6, seed=7, chunk_size=6)
        unit = units[0]
        seeds = _cell_seeds(7, unit.x_index, 6)
        assert list(unit.seeds) == seeds
        for (si, config), key in zip(unit.cells, unit.keys):
            assert key == cell_chunk_key(config, unit.seeds)

    def test_extraction_is_deterministic(self, spec):
        a = extract_units(spec, trials=8, seed=3, chunk_size=4)
        b = extract_units(spec, trials=8, seed=3, chunk_size=4)
        assert [u.unit_id for u in a] == [u.unit_id for u in b]

    def test_sweep_id_covers_shape(self, spec):
        units = extract_units(spec, trials=8, seed=3, chunk_size=4)
        base = sweep_id(spec.name, units, trials=8, seed=3, chunk_size=4)
        assert base != sweep_id(
            spec.name, units, trials=8, seed=3, chunk_size=8
        )
        assert base != sweep_id("other", units, trials=8, seed=3, chunk_size=4)

    def test_bad_shape_raises(self, spec):
        with pytest.raises(FabricError):
            extract_units(spec, trials=0, seed=1, chunk_size=4)
        with pytest.raises(FabricError):
            extract_units(spec, trials=4, seed=1, chunk_size=0)


class TestWireFormat:
    def test_round_trip_preserves_identity(self, spec):
        unit = extract_units(spec, trials=4, seed=11, chunk_size=4)[0]
        doc = json.loads(json.dumps(unit_to_dict(unit)))  # through JSON
        back = unit_from_dict(doc)
        assert back == unit

    def test_tampered_payload_is_rejected(self, spec):
        unit = extract_units(spec, trials=4, seed=11, chunk_size=4)[0]
        doc = unit_to_dict(unit)
        doc["seeds"][0] += 1  # payload no longer matches the claimed id
        with pytest.raises(FabricError, match="id mismatch"):
            unit_from_dict(doc)

    def test_malformed_document_is_rejected(self):
        with pytest.raises(FabricError, match="malformed"):
            unit_from_dict({"unit": "x", "cells": [[0, {}]], "seeds": []})


class TestCompute:
    def test_compute_unit_matches_single_process_records(
        self, spec, tmp_path
    ):
        # Records a worker computes are the records a cached
        # single-process run would have written under the same keys.
        units = extract_units(spec, trials=6, seed=5, chunk_size=3)
        store = TrialStore(tmp_path / "s")
        run_experiment(
            spec, trials=6, seed=5, jobs=1, chunk_size=3, cache=store
        )
        for unit in units:
            assert unit_is_stored(store, unit)
            for key, value in compute_unit(unit):
                assert json.dumps(store.get(key), sort_keys=True) == (
                    json.dumps(value, sort_keys=True)
                )
        store.close()

    def test_compute_units_leaves_no_workload_alive(self, spec):
        # A sweep worker computes batch after batch; once compute_units
        # returns, none of the compiled workloads it built may linger.
        units = extract_units(spec, trials=8, seed=5, chunk_size=2)
        gc.collect()
        before = [
            o for o in gc.get_objects() if isinstance(o, CompiledWorkload)
        ]
        known = {id(o) for o in before}  # held above, so ids stay unique
        records = compute_units(units, use_vec=True)
        assert len(records) == sum(len(u.keys) for u in units)
        gc.collect()
        leaked = [
            o
            for o in gc.get_objects()
            if isinstance(o, CompiledWorkload) and id(o) not in known
        ]
        assert leaked == []
