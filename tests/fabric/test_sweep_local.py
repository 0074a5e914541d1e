"""End-to-end local sweeps: bit-identity, crash recovery, resume.

The fabric's headline contract, exercised with real worker processes:
``run_sweep`` equals single-process ``run_experiment`` byte for byte,
survives a SIGKILLed worker via lease expiry, finishes inline when no
workers exist, and a re-run over the same store recomputes nothing.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.errors import FabricError
from repro.experiments.runner import run_experiment
from repro.fabric import FabricCoordinator, LocalTransport, run_sweep
from repro.store import TrialStore

TRIALS, SEED, CHUNK = 10, 77, 4


def result_text(result) -> str:
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def reference(spec_module):
    result = run_experiment(
        spec_module, trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK
    )
    return result_text(result)


@pytest.fixture(scope="module")
def spec_module():
    from .conftest import make_spec

    return make_spec()


class TestRunSweep:
    def test_inline_only_sweep_is_bit_identical(
        self, spec_module, reference, tmp_path
    ):
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=0,
            chunk_size=CHUNK,
            store=tmp_path / "s",
        )
        assert result_text(outcome.result) == reference
        report = outcome.report
        assert report.units == 6
        assert report.completions == 6
        assert report.prestored_units == 0

    def test_worker_processes_are_bit_identical(
        self, spec_module, reference, tmp_path
    ):
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=CHUNK,
            store=tmp_path / "s",
            lease_ttl=10.0,
        )
        assert result_text(outcome.result) == reference
        snap_workers = outcome.report.workers_spawned
        assert 0 < snap_workers <= 2  # clamped to outstanding units

    def test_sigkilled_worker_does_not_lose_the_sweep(
        self, spec_module, reference, tmp_path
    ):
        # Kill one of the two workers as soon as it exists; the short
        # lease TTL lets the survivor (or the coordinator's inline
        # fallback) steal whatever it held.  The sweep must complete
        # and stay bit-identical no matter when the kill lands.
        def kill_first(pids):
            assert pids
            os.kill(pids[0], signal.SIGKILL)

        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=CHUNK,
            store=tmp_path / "s",
            lease_ttl=0.8,
            on_workers=kill_first,
        )
        assert result_text(outcome.result) == reference
        assert outcome.report.completions + outcome.report.prestored_units >= 6

    def test_resume_recomputes_nothing(
        self, spec_module, reference, tmp_path
    ):
        store = tmp_path / "s"
        run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=0,
            chunk_size=CHUNK,
            store=store,
        )
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=0,
            chunk_size=CHUNK,
            store=store,
        )
        assert result_text(outcome.result) == reference
        report = outcome.report
        assert report.prestored_units == 6
        assert report.leases == 0 and report.completions == 0


class TestCoordinator:
    @pytest.mark.parametrize("ttl", [0.0, float("nan"), float("inf")])
    def test_lease_ttl_must_be_positive_and_finite(
        self, spec_module, tmp_path, ttl
    ):
        with pytest.raises(FabricError, match="positive and finite"):
            FabricCoordinator(
                spec_module,
                trials=TRIALS,
                seed=SEED,
                chunk_size=CHUNK,
                store=tmp_path / "s",
                lease_ttl=ttl,
            )
        assert not (tmp_path / "s").exists()

    def test_expired_lease_is_finished_by_inline_fallback(
        self, spec_module, tmp_path
    ):
        coordinator = FabricCoordinator(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            chunk_size=CHUNK,
            store=tmp_path / "s",
            lease_ttl=0.3,
        )
        try:
            # A phantom worker takes one unit and dies silently.
            transport = LocalTransport(coordinator.store, coordinator.root)
            assert transport.lease_batch("phantom", 1, 0.3)
            time.sleep(0.4)
            coordinator.run_inline(poll=0.05)
            snap = coordinator.queue.snapshot()
            assert snap.finished
            assert snap.reissues == 1
        finally:
            coordinator.close()

    def test_partial_store_premarks_units(self, spec_module, tmp_path):
        store = TrialStore(tmp_path / "s")
        # Warm half the grid through the ordinary cache path...
        run_experiment(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            jobs=1,
            chunk_size=CHUNK,
            cache=store,
        )
        # ...then a sweep over the same store has nothing left to do.
        coordinator = FabricCoordinator(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            chunk_size=CHUNK,
            store=store,
        )
        assert coordinator.prestored == 6
        assert coordinator.queue.finished()
        coordinator.execute(workers=0)  # returns immediately
        store.close()

    def test_other_chunk_size_matches_its_own_reference(
        self, spec_module, tmp_path
    ):
        # Bit-identity is per chunk size (the single-process engine's
        # own merge grouping): a chunk-3 sweep must equal a chunk-3
        # single-process run, not the chunk-4 reference.
        single = run_experiment(
            spec_module, trials=TRIALS, seed=SEED, jobs=1, chunk_size=3
        )
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=0,
            chunk_size=3,
            store=tmp_path / "s",
        )
        assert result_text(outcome.result) == result_text(single)
