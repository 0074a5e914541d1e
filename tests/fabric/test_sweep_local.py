"""End-to-end local sweeps: bit-identity, crash recovery, resume.

The fabric's headline contract, exercised with real worker processes:
``run_sweep`` equals single-process ``run_experiment`` byte for byte
whether the coordinator computes alone or beside spawned children,
survives a SIGKILLed worker via lease expiry, releases the leases of a
failed or interrupted coordinator, ends without waiting out its poll
interval, and a re-run over the same store recomputes nothing.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

import repro.fabric.worker as worker_module
from repro.errors import FabricError
from repro.experiments.runner import run_experiment
from repro.fabric import (
    FabricCoordinator,
    LocalTransport,
    WorkQueue,
    extract_units,
    run_sweep,
)
from repro.store import TrialStore

TRIALS, SEED, CHUNK = 10, 77, 4
#: Four units of about a quarter second each: long enough for a kill
#: to land while a worker computes.
BIG_TRIALS, BIG_CHUNK = 512, 256


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


@pytest.fixture(scope="module")
def big_reference(spec_module):
    result = run_experiment(
        spec_module, trials=BIG_TRIALS, seed=SEED, jobs=1, chunk_size=BIG_CHUNK
    )
    return result_text(result)


def hold_until_child_leases(store, killed=None):
    """An ``on_workers`` hook that keeps the coordinator from computing
    until its one spawned child holds a lease (then SIGKILLs it when
    *killed* is a list, recording how many units it held)."""

    def hook(pids):
        [pid] = pids
        [root] = (store / "fabric").iterdir()
        queue = WorkQueue(root)
        child = f"local-{os.getpid()}-0"
        deadline = time.monotonic() + 60.0
        while not queue.snapshot().leased_by.get(child):
            assert time.monotonic() < deadline, "the child never leased"
            time.sleep(0.01)
        if killed is not None:
            os.kill(pid, signal.SIGKILL)
            killed.append(queue.snapshot().leased_by.get(child, 0))

    return hook


def last_done_mark(store) -> float:
    [root] = (store / "fabric").iterdir()
    records = [
        json.loads(line)
        for line in (root / "JOURNAL.jsonl").read_text().splitlines()
    ]
    return max(r["t"] for r in records if r["op"] == "done")


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


class TestCoordinatorAsWorker:
    """``workers=N`` computes on the coordinator and N − 1 children."""

    def test_one_worker_spawns_no_process(
        self, spec_module, reference, tmp_path
    ):
        spawned = []
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=1,
            chunk_size=CHUNK,
            store=tmp_path / "s",
            on_workers=spawned.append,
        )
        assert result_text(outcome.result) == reference
        assert spawned == [[]]
        report = outcome.report
        assert (report.workers_computing, report.workers_spawned) == (1, 0)
        assert report.completions == 6

    def test_two_workers_spawn_one_process(
        self, spec_module, reference, tmp_path
    ):
        spawned = []
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=CHUNK,
            store=tmp_path / "s",
            on_workers=spawned.append,
        )
        assert result_text(outcome.result) == reference
        assert [len(pids) for pids in spawned] == [1]
        report = outcome.report
        assert (report.workers_computing, report.workers_spawned) == (2, 1)
        assert "2 local worker(s) computing (1 spawned)" in report.summary()

    def test_killed_child_units_are_finished_after_the_ttl(
        self, spec_module, big_reference, tmp_path
    ):
        store = tmp_path / "s"
        killed: list[int] = []
        outcome = run_sweep(
            spec_module,
            trials=BIG_TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=BIG_CHUNK,
            store=store,
            lease_ttl=1.0,
            poll=0.05,
            on_workers=hold_until_child_leases(store, killed),
        )
        assert result_text(outcome.result) == big_reference
        assert killed == [1]  # ⌈4 pending / (2 · 2 workers)⌉
        report = outcome.report
        assert report.reissues == 1
        assert report.completions == 4

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("poisoned unit"), KeyboardInterrupt()],
        ids=["exception", "ctrl-c"],
    )
    def test_failing_own_compute_releases_leases_and_resumes(
        self, spec_module, reference, tmp_path, monkeypatch, error
    ):
        real = worker_module.compute_units
        batches: list[list[str]] = []

        def record(units, *args):
            batches.append([u.unit_id for u in units])
            return real(units, *args)

        def fail_second(units, *args):
            if len(batches) == 1:
                batches.append([u.unit_id for u in units])
                raise error
            return record(units, *args)

        monkeypatch.setattr(worker_module, "compute_units", fail_second)
        coordinator = FabricCoordinator(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            chunk_size=CHUNK,
            store=tmp_path / "s",
        )
        try:
            with pytest.raises(type(error)):
                coordinator.execute(workers=1)
            snap = coordinator.queue.snapshot()
        finally:
            coordinator.close()
        # Shares of 6 pending units for one worker: 3 committed, then
        # the failed batch of 2 went back to pending at once.
        assert [len(b) for b in batches] == [3, 2]
        assert (snap.done, snap.leased, snap.pending) == (3, 0, 3)

        stored = set(batches[0])
        batches.clear()
        monkeypatch.setattr(worker_module, "compute_units", record)
        outcome = run_sweep(
            spec_module,
            trials=TRIALS,
            seed=SEED,
            workers=1,
            chunk_size=CHUNK,
            store=tmp_path / "s",
        )
        assert result_text(outcome.result) == reference
        recomputed = {uid for batch in batches for uid in batch}
        assert len(recomputed) == 3 and recomputed.isdisjoint(stored)
        assert outcome.report.prestored_units == 3
        assert outcome.report.completions == 3

    def test_failing_own_compute_interrupts_the_children(
        self, spec_module, tmp_path, monkeypatch
    ):
        def compute(units, *args):
            raise RuntimeError("poisoned unit")

        monkeypatch.setattr(worker_module, "compute_units", compute)
        coordinator = FabricCoordinator(
            spec_module,
            trials=BIG_TRIALS,
            seed=SEED,
            chunk_size=BIG_CHUNK,
            store=tmp_path / "s",
            lease_ttl=30.0,
        )
        spawned: list[int] = []
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="poisoned"):
                coordinator.execute(workers=3, on_workers=spawned.extend)
            elapsed = time.monotonic() - start
            snap = coordinator.queue.snapshot()
        finally:
            coordinator.close()
        # SIGINT ended the children before they drained the queue (they
        # were still starting up), and they are reaped.
        assert len(spawned) == 2 and elapsed < 20.0
        for pid in spawned:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert snap.leased == 0 and snap.done < snap.total

    def test_coordinator_wakes_when_its_last_child_exits(
        self, spec_module, big_reference, tmp_path, monkeypatch
    ):
        # The coordinator serves its units from precomputed records at
        # once, so it runs dry while its child still computes: with a
        # 5 s poll, only the child's exit can wake it in time.
        real = worker_module.compute_units
        ready = {
            unit.unit_id: real([unit])
            for unit in extract_units(
                spec_module, trials=BIG_TRIALS, seed=SEED, chunk_size=BIG_CHUNK
            )
        }
        monkeypatch.setattr(
            worker_module,
            "compute_units",
            lambda units, *args: [r for u in units for r in ready[u.unit_id]],
        )
        store = tmp_path / "s"
        outcome = run_sweep(
            spec_module,
            trials=BIG_TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=BIG_CHUNK,
            store=store,
            poll=5.0,
            on_workers=hold_until_child_leases(store),
        )
        returned = time.time()
        assert result_text(outcome.result) == big_reference
        assert returned - last_done_mark(store) < 1.5

    def test_children_wake_when_the_coordinator_finishes(
        self, spec_module, big_reference, tmp_path, monkeypatch
    ):
        # The coordinator computes slowly, so its child runs dry first
        # and naps: with a 5 s poll, only the coordinator's wake-up can
        # end that nap before the join.
        real = worker_module.compute_units

        def slow(units, *args):
            time.sleep(1.0)
            return real(units, *args)

        monkeypatch.setattr(worker_module, "compute_units", slow)
        store = tmp_path / "s"
        outcome = run_sweep(
            spec_module,
            trials=BIG_TRIALS,
            seed=SEED,
            workers=2,
            chunk_size=BIG_CHUNK,
            store=store,
            poll=5.0,
            on_workers=hold_until_child_leases(store),
        )
        returned = time.time()
        assert result_text(outcome.result) == big_reference
        assert returned - last_done_mark(store) < 1.5


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
