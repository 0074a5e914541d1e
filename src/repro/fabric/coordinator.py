"""The sweep coordinator: shard, fan out, survive crashes, merge.

:func:`run_sweep` is the one-call form — shard an experiment into
units, run them on N local worker processes against one shared store,
and merge the committed partials back into a normal
:class:`~repro.experiments.runner.ExperimentResult`:

* **bit-identity** — the merge is a warm
  ``run_experiment(cache=store)``: with every unit's records in the
  store, it restores the exact aggregates a single-process run would
  have computed and merges them in the same order, so the result is
  bit-identical at any worker count (the store tier's existing
  contract, extended across hosts);
* **crash recovery** — a worker that dies holding leases stops
  heartbeating; survivors steal the expired leases.  If *every*
  worker dies (or ``workers=0``), the coordinator finishes the
  remaining units inline, so ``run_sweep`` always terminates with a
  complete result;
* **resume** — the sweep's queue directory is keyed by the sweep's
  content address inside the store directory; a re-run finds done
  units done (and pre-marks units whose records already sit in the
  store, e.g. from an overlapping earlier sweep) and computes only the
  remainder.

:class:`FabricCoordinator` is the composable form the CLI's ``--serve``
mode uses: it exposes the queue/units/store so an HTTP endpoint
(:class:`repro.fabric.endpoint.FabricEndpoint`) can hand leases to
remote workers while local workers (if any) drain the same queue.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..errors import FabricError
from ..experiments.runner import ExperimentResult, run_experiment
from ..experiments.spec import ExperimentSpec
from ..store import TrialStore
from .queue import QueueSnapshot, WorkQueue, check_ttl
from .transport import LocalTransport, write_units_file
from .units import auto_chunk_size, extract_units, sweep_id, unit_is_stored
from .worker import DEFAULT_BATCH, local_worker_entry, worker_loop

__all__ = ["FabricCoordinator", "SweepReport", "SweepOutcome", "run_sweep"]


@dataclass(frozen=True)
class SweepReport:
    """What one sweep execution did (the operator-facing summary)."""

    sweep: str
    fabric_root: str
    units: int
    prestored_units: int
    leases: int
    completions: int
    reissues: int
    workers_spawned: int
    elapsed_seconds: float
    #: Wall-clock split of this run, e.g. ``{"shard": ..., "execute":
    #: ..., "merge": ...}`` from :func:`run_sweep`.
    phase_seconds: Mapping[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        phases = ""
        if self.phase_seconds:
            split = ", ".join(
                f"{name} {secs:.2f}s"
                for name, secs in self.phase_seconds.items()
            )
            phases = f" [{split}]"
        return (
            f"fabric: {self.units} units ({self.prestored_units} already "
            f"stored), {self.completions} completed over {self.leases} "
            f"leases ({self.reissues} re-issued), "
            f"{self.workers_spawned} local worker(s), "
            f"{self.elapsed_seconds:.2f}s{phases}; "
            f"state in {self.fabric_root}"
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Result + execution report of one :func:`run_sweep` call."""

    result: ExperimentResult
    report: SweepReport


class FabricCoordinator:
    """Owns one sweep's units, queue, and merge.

    Parameters mirror :func:`~repro.experiments.runner.run_experiment`
    where they overlap (``trials``/``seed``/``chunk_size`` shape the
    very same units; ``chunk_size=None`` — the default — auto-sizes
    units to fill the vec tier's batch lanes, see
    :func:`~repro.fabric.units.auto_chunk_size`), plus the fabric
    knobs: ``lease_ttl`` is how long a silent worker keeps its units
    before they are stolen, ``batch`` how many units a worker leases
    and group-commits per protocol round trip.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        trials: int = 1024,
        seed: int = 2026,
        chunk_size: int | None = None,
        store: TrialStore | str | Path,
        fabric_root: str | Path | None = None,
        lease_ttl: float = 30.0,
        batch: int = DEFAULT_BATCH,
        clock: Callable[[], float] = time.time,
    ) -> None:
        check_ttl(lease_ttl)
        if batch < 1:
            raise FabricError(f"batch must be >= 1, got {batch}")
        if chunk_size is None:
            chunk_size = auto_chunk_size(trials)
        self.spec = spec
        self.trials = trials
        self.seed = seed
        self.chunk_size = chunk_size
        self.lease_ttl = lease_ttl
        self.batch = batch
        self._owns_store = not isinstance(store, TrialStore)
        self.store = store if isinstance(store, TrialStore) else TrialStore(store)
        self.units = extract_units(
            spec, trials=trials, seed=seed, chunk_size=chunk_size
        )
        self.sweep = sweep_id(
            spec.name,
            self.units,
            trials=trials,
            seed=seed,
            chunk_size=chunk_size,
        )
        self.root = (
            Path(fabric_root)
            if fabric_root is not None
            else self.store.root / "fabric" / self.sweep[:12]
        )
        self.root.mkdir(parents=True, exist_ok=True)
        write_units_file(self.root, self.sweep, self.units)
        prestored = [
            u.unit_id for u in self.units if unit_is_stored(self.store, u)
        ]
        self.prestored = len(prestored)
        self.queue = WorkQueue.create(
            self.root,
            self.sweep,
            [u.unit_id for u in self.units],
            done=prestored,
            clock=clock,
        )
        self.workers_spawned = 0
        # Resumed manifests carry lifetime counters; the report shows
        # this run's activity as deltas against the resume point.
        self._base_snapshot = self.queue.snapshot()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def spawn_workers(self, n: int) -> list[multiprocessing.Process]:
        """Start *n* local worker processes against this sweep's queue.

        Spawn (not fork): workers import :mod:`repro` fresh and receive
        only paths and floats, so the coordinator's open file handles,
        locks, and threads never leak into them.
        """
        ctx = multiprocessing.get_context("spawn")
        procs = []
        for i in range(n):
            proc = ctx.Process(
                target=local_worker_entry,
                args=(
                    str(self.store.root),
                    str(self.root),
                    f"local-{os.getpid()}-{i}",
                    self.lease_ttl,
                    0.2,
                    self.batch,
                ),
                daemon=True,
                name=f"repro-fabric-worker-{i}",
            )
            proc.start()
            procs.append(proc)
        self.workers_spawned += n
        return procs

    def run_inline(
        self, *, poll: float = 0.2, worker: str | None = None
    ) -> int:
        """Drain the queue in this process (the worker-of-last-resort)."""
        transport = LocalTransport(self.store, self.root)
        return worker_loop(
            transport,
            worker or f"coordinator-{os.getpid()}",
            lease_ttl=self.lease_ttl,
            poll=poll,
            batch=self.batch,
        )

    def execute(
        self,
        *,
        workers: int | None = None,
        poll: float = 0.2,
        on_workers: Callable[[list[int]], None] | None = None,
        inline_fallback: bool = True,
    ) -> None:
        """Run until every unit is done.

        ``workers`` local processes are spawned (default: CPU count,
        clamped to the number of units still outstanding; 0 computes
        inline only).  ``on_workers`` receives their PIDs — the chaos
        hook the kill tests use.  With ``inline_fallback`` (default)
        the coordinator finishes remaining units itself once no local
        worker is left alive; ``--serve``-only coordinators pass
        ``False`` to wait for remote workers instead.
        """
        snapshot = self.queue.snapshot()
        if snapshot.finished:
            return
        outstanding = snapshot.total - snapshot.done
        n = workers if workers is not None else (os.cpu_count() or 1)
        n = min(n, outstanding)
        procs = self.spawn_workers(n) if n > 0 else []
        if on_workers is not None:
            on_workers([p.pid for p in procs if p.pid is not None])
        try:
            while not self.queue.finished():
                if not any(p.is_alive() for p in procs):
                    if inline_fallback:
                        self.run_inline(poll=poll)
                    else:
                        time.sleep(poll)
                else:
                    time.sleep(poll)
        finally:
            deadline = time.monotonic() + max(5.0, 2.0 * self.lease_ttl)
            for proc in procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Merge / reporting
    # ------------------------------------------------------------------
    def merge(self) -> ExperimentResult:
        """Fold the store's partials into a normal experiment result.

        A warm single-process ``run_experiment`` over the shared store:
        every chunk restores from disk and merges in canonical order,
        so the result is bit-identical to an uncached single-process
        run.  (Were any chunk somehow missing, it would be computed
        here rather than fail — the merge is self-healing.)
        """
        return run_experiment(
            self.spec,
            trials=self.trials,
            seed=self.seed,
            jobs=1,
            chunk_size=self.chunk_size,
            engine="paired",
            cache=self.store,
        )

    def report(
        self,
        elapsed_seconds: float = 0.0,
        phase_seconds: Mapping[str, float] | None = None,
    ) -> SweepReport:
        snapshot: QueueSnapshot = self.queue.snapshot()
        base = self._base_snapshot
        return SweepReport(
            sweep=self.sweep,
            fabric_root=str(self.root),
            units=snapshot.total,
            prestored_units=base.done,
            leases=snapshot.leases - base.leases,
            completions=snapshot.completions - base.completions,
            reissues=snapshot.reissues - base.reissues,
            workers_spawned=self.workers_spawned,
            elapsed_seconds=elapsed_seconds,
            phase_seconds=dict(phase_seconds or {}),
        )

    def endpoint(self, metrics: Any = None):
        """A ``/fabric/*`` HTTP endpoint over this sweep (served store)."""
        from .endpoint import FabricEndpoint

        return FabricEndpoint(self, metrics=metrics)

    def close(self) -> None:
        if self._owns_store:
            self.store.close()


def run_sweep(
    spec: ExperimentSpec,
    *,
    trials: int = 1024,
    seed: int = 2026,
    workers: int | None = None,
    chunk_size: int | None = None,
    store: TrialStore | str | Path,
    fabric_root: str | Path | None = None,
    lease_ttl: float = 30.0,
    batch: int = DEFAULT_BATCH,
    poll: float = 0.2,
    on_workers: Callable[[list[int]], None] | None = None,
) -> SweepOutcome:
    """Shard *spec*, execute on *workers* local processes, merge.

    The distributed counterpart of
    :func:`~repro.experiments.runner.run_experiment`: same result, bit
    for bit, any worker count, and it survives killed workers and
    resumes partial sweeps (see :class:`FabricCoordinator`).  The
    report carries a shard/execute/merge wall-clock split in
    ``phase_seconds``.
    """
    start = time.perf_counter()
    coordinator = FabricCoordinator(
        spec,
        trials=trials,
        seed=seed,
        chunk_size=chunk_size,
        store=store,
        fabric_root=fabric_root,
        lease_ttl=lease_ttl,
        batch=batch,
    )
    shard_done = time.perf_counter()
    try:
        coordinator.execute(workers=workers, poll=poll, on_workers=on_workers)
        execute_done = time.perf_counter()
        result = coordinator.merge()
        merge_done = time.perf_counter()
        report = coordinator.report(
            merge_done - start,
            phase_seconds={
                "shard": shard_done - start,
                "execute": execute_done - shard_done,
                "merge": merge_done - execute_done,
            },
        )
    finally:
        coordinator.close()
    return SweepOutcome(result=result, report=report)
