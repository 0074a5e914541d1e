"""Experiment execution: paired trials, cells, and multiprocessing fan-out.

Determinism contract: the outcome of a trial depends only on
``(root_seed, x_index, trial_index)`` — never on worker
count, scheduling order, or engine choice.  Workers receive coarse
(configs, seed-block) pairs and return aggregate counts, so
inter-process traffic stays tiny (per the hpc-parallel guidance:
parallelize coarse-grained units, keep the serial inner loop simple and
measured).

One planner, :func:`iter_experiments`, runs every experiment: it shards
all specs of a run into ``(workload, x_index, seed chunk)`` units,
judges each distinct ``(config, seed chunk)`` once across experiments,
and scatters the partials back to every cell that asked for them.  In a
unit each seed's workload is generated once, its derived state
(topological order, adjacency, transitive closure, per-estimator WCET
maps, deadline assignments) is computed once on a
:class:`~repro.experiments.context.TrialContext`, and every config is
judged on that same workload — the paper's paired design (one fixed set
of 1024 task graphs judged by every metric).  ``engine="percell"``
instead gives every distinct cell chunk its own unit, regenerating the
workload per series; it is kept for equivalence testing, and produces
bit-identical cells because trial seeds never depend on the series.

The planner can consult a persistent content-addressed result store
(``run_experiment(cache=...)``, see :mod:`repro.store`): each
``(cell, seed-chunk)`` partial is keyed by a digest of the trial config
and its seed block, so warm re-runs skip completed chunks entirely, an
interrupted sweep resumes where it stopped, and a delta sweep that adds
a series to an existing grid recomputes only the new series' judgments
— all while producing the same ``ExperimentResult``, bit for bit, as an
uncached run at any ``jobs``/``engine`` setting (cached partials are
the exact aggregates the engine would have produced, and merge order is
preserved).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..analysis.stats import BinomialEstimate
from ..core.metrics import get_metric
from ..core.slicing import distribute_deadlines
from ..errors import ExperimentError, ReproError
from ..rng import derive_seed
from ..sched.listsched import get_scheduler
from ..store import StoreStats, TrialStore, store_key
from ..system.interconnect import ContentionBus
from ..kernel.trial import (
    kernel_enabled,
    kernel_supported,
    run_trial_kernel,
    run_trial_vec,
)
from ..kernel.vec import batch_engages, vec_available, vec_mode
from .context import TrialContext
from .spec import ExperimentSpec, TrialConfig, TrialOutcome

__all__ = [
    "run_trial",
    "run_cell",
    "run_paired_cells",
    "run_experiment",
    "run_experiments",
    "iter_experiments",
    "cell_chunk_key",
    "CellResult",
    "ExperimentResult",
    "ENGINE_NAMES",
]

#: Execution engines accepted by :func:`run_experiments`.
#: ``"paired-ref"`` is the paired engine pinned to the string-keyed
#: reference trial pipeline (the kernel's oracle); ``"paired"`` and
#: ``"percell"`` use the compiled kernel whenever it is enabled and the
#: config is inside its envelope — results are bit-identical either way.
ENGINE_NAMES: tuple[str, ...] = ("paired", "paired-ref", "percell")


def run_trial(
    config: TrialConfig,
    seed: int,
    context: TrialContext | None = None,
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
) -> TrialOutcome:
    """Run one generate→slice→schedule trial.

    ``context`` optionally supplies the trial's generated workload and
    lazily cached derived state; the paired engine passes one context to
    every series of a trial.  When omitted, the workload is generated
    here from *seed* — the outcome is identical either way, because the
    context only memoizes pure functions of the workload.

    ``use_kernel`` pins the compiled fast path on (``True``) or off
    (``False``); the default ``None`` defers to the ``REPRO_KERNEL``
    environment switch.  ``use_vec`` likewise pins the vectorized tier
    (default: the ``REPRO_VEC`` switch — in its default ``auto`` mode
    this *single-trial* path stays scalar, because the vec win only
    materializes across a seed batch; ``REPRO_VEC=1`` forces it on);
    it engages only when NumPy is importable and silently falls through
    to the compiled kernel otherwise.  Pinning ``use_kernel=False``
    (the ``paired-ref`` oracle) disables the vectorized tier too — the
    reference pipeline runs alone.  Every tier is bit-identical inside
    its envelope, so the outcome never depends on these switches.
    """
    if context is None:
        context = TrialContext.from_seed(config.workload, seed)
    use_k = use_kernel if use_kernel is not None else kernel_enabled()
    use_v = use_vec if use_vec is not None else vec_mode() == "on"
    if use_kernel is False:
        use_v = False
    if use_v and vec_available() and kernel_supported(config):
        return run_trial_vec(config, context)
    if use_k and kernel_supported(config):
        return run_trial_kernel(config, context)
    graph, platform = context.graph, context.platform

    fixed = None
    if config.locality == "strict":
        # Conventional regime: a clustering pre-assignment makes the
        # execution times exact and pins every task's processor.
        fixed, estimates = context.strict_assignment()
    else:
        estimates = context.estimates_for(config.estimator)

    def distribute():
        metric = get_metric(config.metric, config.adaptive)
        # ``use_k`` pins the slicing/scheduling sub-dispatch too: with
        # the kernel off (the ``paired-ref`` oracle leg,
        # ``use_kernel=False``) every layer must run the string-keyed
        # reference code, so neither helper may fall back to its own
        # environment check.
        return distribute_deadlines(
            graph,
            platform,
            metric,
            estimator=config.estimator,
            estimates=estimates,
            validate=False,  # generator output is valid by construction
            closure=context.closure if metric.uses_closure else None,
            topo_order=context.topo_order,
            successors=context.successors,
            predecessors=context.predecessors,
            initial_pins=context.initial_pins,
            compiled=context.compiled if use_k else None,
            kernel=use_k,
        )

    assignment = context.assignment(
        config, "reference+kernel" if use_k else "reference", distribute
    )

    comm = (
        ContentionBus(config.workload.bus_delay_per_item)
        if config.contention_bus
        else None
    )
    if fixed is not None:
        from ..assign import FixedAssignmentEdfScheduler

        scheduler = FixedAssignmentEdfScheduler(
            fixed, continue_on_miss=config.measure_lateness
        )
    else:
        scheduler = get_scheduler(
            config.scheduler, continue_on_miss=config.measure_lateness
        )
    schedule = scheduler.schedule(
        graph,
        platform,
        assignment,
        comm=comm,
        predecessors=context.predecessors,
        successors=context.successors,
        compiled=context.compiled if use_k else None,
    )

    if config.measure_lateness or schedule.feasible:
        max_lateness = schedule.max_lateness()
    else:
        max_lateness = float("nan")  # fail-fast schedules are partial
    return TrialOutcome(
        success=schedule.feasible,
        degenerate=assignment.degenerate,
        n_tasks=graph.n_tasks,
        min_laxity=assignment.min_laxity(estimates),
        makespan=schedule.makespan,
        max_lateness=max_lateness,
        failed_task=schedule.failed_task,
    )


@dataclass
class CellResult:
    """Aggregated outcomes of all trials of one (x, series) cell.

    ``mean_max_lateness`` averages the maximum lateness over the trials
    where it was measured (always, under ``measure_lateness``; only the
    feasible trials otherwise); ``lateness_trials`` counts them.
    """

    estimate: BinomialEstimate
    degenerate: int = 0
    mean_min_laxity: float = float("nan")
    mean_max_lateness: float = float("nan")
    lateness_trials: int = 0

    @property
    def ratio(self) -> float:
        return self.estimate.ratio

    @property
    def trials(self) -> int:
        return self.estimate.trials

    def merged(self, other: "CellResult") -> "CellResult":
        n = self.trials + other.trials
        if n == 0:
            lax = float("nan")
        else:
            lax = (
                _nan_zero(self.mean_min_laxity) * self.trials
                + _nan_zero(other.mean_min_laxity) * other.trials
            ) / n
        ln = self.lateness_trials + other.lateness_trials
        if ln == 0:
            late = float("nan")
        else:
            late = (
                _nan_zero(self.mean_max_lateness) * self.lateness_trials
                + _nan_zero(other.mean_max_lateness) * other.lateness_trials
            ) / ln
        return CellResult(
            estimate=self.estimate.merged(other.estimate),
            degenerate=self.degenerate + other.degenerate,
            mean_min_laxity=lax,
            mean_max_lateness=late,
            lateness_trials=ln,
        )

    def to_dict(self) -> dict[str, Any]:
        """The store record of this (partial) cell.

        Round-trips exactly: counts are integers, means go through
        JSON's ``repr``-based float encoding which is lossless for
        float64 (NaN included), so a cached partial merges to the same
        bits as a freshly computed one.
        """
        return {
            "successes": self.estimate.successes,
            "trials": self.estimate.trials,
            "degenerate": self.degenerate,
            "mean_min_laxity": self.mean_min_laxity,
            "mean_max_lateness": self.mean_max_lateness,
            "lateness_trials": self.lateness_trials,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CellResult":
        """Inverse of :meth:`to_dict` (store records, result files)."""
        try:
            return cls(
                estimate=BinomialEstimate(
                    int(doc["successes"]), int(doc["trials"])
                ),
                degenerate=int(doc["degenerate"]),
                mean_min_laxity=float(doc["mean_min_laxity"]),
                mean_max_lateness=float(doc["mean_max_lateness"]),
                lateness_trials=int(doc["lateness_trials"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed cell record: {exc}") from exc


def cell_chunk_key(config: TrialConfig, seeds: Sequence[int]) -> str:
    """Content address of one (cell, seed-chunk) partial result.

    Keyed by everything that determines the outcomes — the full trial
    config (workload params, metric/estimator/adaptive/bus/scheduler/
    locality knobs) and the exact seed block — plus, inside
    :func:`repro.store.store_key`, the store schema and the code salt.
    Deliberately *not* keyed: the root seed, x value/index and trials
    count (all already captured by the derived seeds), and
    ``jobs``/``engine`` (results are invariant to them).  Sweeps that
    overlap — a widened x axis, more trials per cell, a new series —
    therefore share every chunk they have in common.
    """
    return store_key(
        "cell-chunk", {"config": config.to_dict(), "seeds": list(seeds)}
    )


def _nan_zero(v: float) -> float:
    return 0.0 if v != v else v


class _CellAccumulator:
    """Streaming aggregation of trial outcomes into one :class:`CellResult`.

    Shared by both engines so their per-chunk floating-point arithmetic
    is literally the same code (a prerequisite of the bit-identical
    equivalence contract).
    """

    __slots__ = ("successes", "degenerate", "laxities", "latenesses")

    def __init__(self) -> None:
        self.successes = 0
        self.degenerate = 0
        self.laxities: list[float] = []
        self.latenesses: list[float] = []

    def add(self, outcome: TrialOutcome) -> None:
        self.successes += int(outcome.success)
        self.degenerate += int(outcome.degenerate)
        self.laxities.append(outcome.min_laxity)
        if outcome.max_lateness == outcome.max_lateness:  # not NaN
            self.latenesses.append(outcome.max_lateness)

    def result(self, trials: int) -> CellResult:
        laxities, latenesses = self.laxities, self.latenesses
        mean_lax = sum(laxities) / len(laxities) if laxities else float("nan")
        mean_late = (
            sum(latenesses) / len(latenesses) if latenesses else float("nan")
        )
        return CellResult(
            estimate=BinomialEstimate(self.successes, trials),
            degenerate=self.degenerate,
            mean_min_laxity=mean_lax,
            mean_max_lateness=mean_late,
            lateness_trials=len(latenesses),
        )


def run_cell(
    config: TrialConfig,
    seeds: Sequence[int],
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
) -> CellResult:
    """Run a block of trials of one cell serially (per-cell worker unit)."""
    acc = _CellAccumulator()
    for seed in seeds:
        acc.add(run_trial(config, seed, use_kernel=use_kernel, use_vec=use_vec))
    return acc.result(len(seeds))


def run_paired_cells(
    cells: Sequence[tuple[Any, TrialConfig]],
    seeds: Sequence[int],
    use_kernel: bool | None = None,
    use_vec: bool | None = None,
) -> list[tuple[Any, CellResult]]:
    """Run a block of paired trials covering every series of one sweep point.

    *cells* lists ``(cell_id, config)`` for one ``x_index`` — series
    indices, or the planner's :func:`cell_chunk_key` addresses; for
    each seed the workload is generated **once** per distinct
    :class:`~repro.workload.params.WorkloadParams` (normally exactly
    once — series vary the metric/estimator/bus model, not the
    generator) and every series is judged on it through a shared
    :class:`TrialContext`.  Returns one partial :class:`CellResult` per
    series, aggregated over this seed block.

    When the vectorized tier engages for the block
    (:func:`~repro.kernel.vec.batch_engages`), the whole block runs
    through the seed-batch driver: one weight-stage array pass and one
    lockstep EDF pass cover every seed lane of each series, and the
    per-series accumulators are fed the identical outcomes in the
    identical seed order — the aggregates match the sequential loop bit
    for bit.
    """
    if batch_engages(cells, len(seeds), use_kernel, use_vec):
        from ..kernel.vec import paired_outcomes

        contexts = TrialContext.from_seeds(cells[0][1].workload, seeds)
        outcomes = paired_outcomes(cells, seeds, contexts, use_kernel)
        accs = {si: _CellAccumulator() for si, _ in cells}
        for sp in range(len(seeds)):
            for si, _config in cells:
                accs[si].add(outcomes[(si, sp)])
        return [(si, accs[si].result(len(seeds))) for si, _ in cells]

    accs = {si: _CellAccumulator() for si, _ in cells}
    for seed in seeds:
        contexts_by_wl: dict[Any, TrialContext] = {}
        for si, config in cells:
            context = contexts_by_wl.get(config.workload)
            if context is None:
                context = TrialContext.from_seed(config.workload, seed)
                contexts_by_wl[config.workload] = context
            accs[si].add(
                run_trial(config, seed, context, use_kernel, use_vec)
            )
    return [(si, accs[si].result(len(seeds))) for si, _ in cells]


@dataclass
class ExperimentResult:
    """All cells of one experiment, plus provenance."""

    name: str
    title: str
    x_label: str
    x_values: list[Any]
    series: list[str]
    cells: dict[tuple[int, int], CellResult] = field(default_factory=dict)
    trials_per_cell: int = 0
    seed: int = 0
    elapsed_seconds: float = 0.0
    paper_reference: str = ""
    #: Store activity of this run (hit/miss/append deltas) when a cache
    #: was used, else ``None``.  Excluded from :meth:`to_dict` so cached
    #: and uncached runs serialize identically.
    cache_stats: StoreStats | None = None

    def cell(self, x_index: int, series_label: str) -> CellResult:
        try:
            si = self.series.index(series_label)
            return self.cells[(x_index, si)]
        except (ValueError, KeyError):
            raise ExperimentError(
                f"no cell for x_index={x_index}, series={series_label!r}"
            ) from None

    def ratios(self, series_label: str) -> list[float]:
        """Success-ratio curve of one series over the x sweep."""
        return [
            self.cell(xi, series_label).ratio
            for xi in range(len(self.x_values))
        ]

    def latenesses(self, series_label: str) -> list[float]:
        """Mean maximum-lateness curve (§4.2 secondary measure)."""
        return [
            self.cell(xi, series_label).mean_max_lateness
            for xi in range(len(self.x_values))
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "format": "repro.experiment-result/1",
            "name": self.name,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": list(self.series),
            "trials_per_cell": self.trials_per_cell,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "paper_reference": self.paper_reference,
            "cells": [
                {
                    "x_index": xi,
                    "series_index": si,
                    "successes": cell.estimate.successes,
                    "trials": cell.estimate.trials,
                    "ratio": cell.ratio,
                    "interval": list(cell.estimate.interval),
                    "degenerate": cell.degenerate,
                    "mean_min_laxity": cell.mean_min_laxity,
                    "mean_max_lateness": cell.mean_max_lateness,
                    "lateness_trials": cell.lateness_trials,
                }
                for (xi, si), cell in sorted(self.cells.items())
            ],
        }


def _cell_seeds(root_seed: int, x_index: int, trials: int) -> list[int]:
    """Deterministic per-trial seeds for one sweep point.

    Seeds depend on the x index and trial index but *not* on the
    series: every series at a sweep point is evaluated on the same
    random workloads, mirroring the paper's design (one fixed set of
    1024 task graphs judged by every metric) and giving the comparisons
    a paired structure.  Series only change the metric/estimator/bus
    model, never the generation, so sharing seeds is always sound.
    """
    return [derive_seed(root_seed, x_index, t) for t in range(trials)]


def run_experiment(
    spec: ExperimentSpec,
    *,
    trials: int = 1024,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    engine: str = "paired",
    cache: "TrialStore | str | Path | None" = None,
) -> ExperimentResult:
    """Run every cell of *spec* with *trials* trials each.

    The one-spec case of :func:`run_experiments` — same options, same
    code path.  ``jobs`` selects the number of worker processes
    (default: CPU count, clamped to the number of dispatched work units
    so small sweeps never spawn idle workers); ``jobs <= 1`` runs
    serially in-process, which is also the mode the test suite uses.
    ``engine`` picks the work-unit shape: ``"paired"`` (default) judges
    every series of a sweep point on one generated workload per seed;
    ``"paired-ref"`` does the same on the reference pipeline;
    ``"percell"`` is the historical one-unit-per-(x, series) engine.
    Results are invariant to ``jobs`` and ``engine`` — cell for cell,
    bit for bit — because trial seeds depend only on ``(seed, x_index,
    trial_index)`` and every engine chunks the seed sequence
    identically.  ``chunk_size`` changes only how the partial
    mean-laxity/lateness sums are grouped before merging, which can
    shift those two means by floating-point rounding (success counts
    stay bit-identical).

    ``cache`` — a :class:`~repro.store.TrialStore` or a directory path
    — consults the persistent result store before computing: completed
    ``(cell, seed-chunk)`` partials (see :func:`cell_chunk_key`) are
    restored instead of re-judged, fresh partials are appended for the
    next run.  The returned result is bit-identical to an uncached run;
    the run's store activity lands in ``result.cache_stats``.  Because
    keys cover the config and seed block only, a warm store also
    accelerates *overlapping* sweeps: added series, widened x axes, or
    raised trial counts recompute just the missing chunks.
    """
    return run_experiments(
        [spec],
        trials=trials,
        seed=seed,
        jobs=jobs,
        chunk_size=chunk_size,
        engine=engine,
        cache=cache,
    )[0]


def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    trials: int = 1024,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    engine: str = "paired",
    cache: "TrialStore | str | Path | None" = None,
) -> list[ExperimentResult]:
    """Run several experiments as one plan; one result per spec, in order.

    Options as in :func:`run_experiment`; the planning is described at
    :func:`iter_experiments`.  Each result equals the one
    :func:`run_experiment` returns for its spec alone, byte for byte
    (``elapsed_seconds`` and ``cache_stats`` aside).  Raises the error
    of the first failing experiment.
    """
    results = []
    with closing(
        iter_experiments(
            specs,
            trials=trials,
            seed=seed,
            jobs=jobs,
            chunk_size=chunk_size,
            engine=engine,
            cache=cache,
        )
    ) as outcomes:
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
            results.append(outcome)
    return results


class _Unit:
    """One ``(workload, x_index, seed chunk)`` block of a joint plan.

    ``cells`` lists the distinct configs still to judge on the block,
    each under its :func:`cell_chunk_key` (the :func:`run_paired_cells`
    input), and ``users`` the experiments waiting for it.
    """

    __slots__ = ("seeds", "cells", "users")

    def __init__(self, seeds: list[int]) -> None:
        self.seeds = seeds
        self.cells: list[tuple[str, TrialConfig]] = []
        self.users: list[int] = []


def iter_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    trials: int = 1024,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    engine: str = "paired",
    cache: "TrialStore | str | Path | None" = None,
) -> Iterator["ExperimentResult | ReproError"]:
    """Run *specs* as one paired job; yield their outcomes as they complete.

    The planner behind :func:`run_experiment` and :func:`run_experiments`:

    1. Every spec is sharded into units keyed by ``(WorkloadParams,
       x_index, seed chunk)``.  Seeds depend only on ``(seed, x_index,
       trial_index)``, so specs that sweep the same workload at the same
       x index share the unit, and each seed's workload is generated
       once for all of them.
    2. Within a unit the cells are deduplicated by
       :func:`cell_chunk_key`, the store's content address: a config
       that several experiments ask for is judged once.
    3. Each unit is judged by one :func:`run_paired_cells` call
       (``engine="percell"``: one unit per distinct cell chunk, judged
       by :func:`run_cell`), on one process pool for the whole plan.
    4. The partials scatter back to every ``(experiment, x, series)``
       that asked for them; each cell merges its chunks in seed order,
       the merge order of a single-spec run.

    Units run in the order they were first planned.  Yields one item
    per spec, in *specs* order: its :class:`ExperimentResult`, or the
    :class:`~repro.errors.ReproError` that failed it — a unit that
    raises fails exactly the experiments that use it, and the others
    still complete.  An experiment is yielded as soon as its last unit
    is merged and every spec before it has been yielded, so a consumer
    that writes each result on arrival keeps the finished prefix of an
    interrupted run.

    ``elapsed_seconds`` is the wall-clock from the start of the plan to
    that experiment's completion.  With a store, each key is looked up
    once and attributed to the experiment that planned it first, so the
    per-experiment ``cache_stats`` add up to the run's store activity.
    """
    _check_options(trials, jobs, chunk_size, engine)
    store, owned = _resolve_store(cache)
    start = time.perf_counter()
    try:
        done: list[ExperimentResult | ReproError | None] = [None] * len(specs)
        # Per experiment: ((x_index, series_index), key) in merge order,
        # and its store [hits, misses, appends].
        slots: list[list[tuple[tuple[int, int], str]]] = [[] for _ in specs]
        counts = [[0, 0, 0] for _ in specs]
        owner: dict[str, int] = {}  # key -> experiment that planned it first
        partials: dict[str, CellResult] = {}
        computed_in: dict[str, _Unit] = {}
        units: dict[Any, _Unit] = {}
        for e, spec in enumerate(specs):
            try:
                groups = spec.cells_by_x()
            except ReproError as exc:
                done[e] = exc
                continue
            for xi, _x, group in groups:
                seeds = _cell_seeds(seed, xi, trials)
                for lo in range(0, trials, chunk_size):
                    chunk = seeds[lo : lo + chunk_size]
                    for si, _label, config in group:
                        key = cell_chunk_key(config, chunk)
                        slots[e].append(((xi, si), key))
                        if key in owner:
                            continue
                        owner[key] = e
                        if store is not None:
                            cached = store.get(key)
                            if cached is not None:
                                counts[e][0] += 1
                                partials[key] = CellResult.from_dict(cached)
                                continue
                            counts[e][1] += 1
                        ukey = (
                            key
                            if engine == "percell"
                            else (config.workload, xi, lo)
                        )
                        unit = units.get(ukey)
                        if unit is None:
                            unit = units[ukey] = _Unit(chunk)
                        unit.cells.append((key, config))
                        computed_in[key] = unit

        waiting = [0] * len(specs)  # units each experiment still needs
        for e in range(len(specs)):
            needed = dict.fromkeys(
                computed_in[key] for _xs, key in slots[e] if key in computed_in
            )
            for unit in needed:
                unit.users.append(e)
            waiting[e] = len(needed)

        def finish(e: int) -> None:
            cells: dict[tuple[int, int], CellResult] = {}
            for xs, key in slots[e]:
                cell = partials[key]
                cells[xs] = cells[xs].merged(cell) if xs in cells else cell
            stats = None
            if store is not None:
                now = store.stats()
                hits, misses, appends = counts[e]
                stats = StoreStats(
                    hits=hits,
                    misses=misses,
                    appends=appends,
                    records=now.records,
                    bytes=now.bytes,
                )
            spec = specs[e]
            done[e] = ExperimentResult(
                name=spec.name,
                title=spec.title,
                x_label=spec.x_label,
                x_values=list(spec.x_values),
                series=list(spec.series),
                cells=cells,
                trials_per_cell=trials,
                seed=seed,
                elapsed_seconds=time.perf_counter() - start,
                paper_reference=spec.paper_reference,
                cache_stats=stats,
            )

        for e in range(len(specs)):
            if done[e] is None and not waiting[e]:
                finish(e)
        emitted = 0
        for unit, judged in _run_units(list(units.values()), engine, jobs):
            if isinstance(judged, ReproError):
                for e in unit.users:
                    if done[e] is None:
                        done[e] = judged
            else:
                partials.update(judged)
                if store is not None:
                    # Each experiment's appends are its own keys' records.
                    records: dict[int, list[tuple[str, Any]]] = {}
                    for key, cell in judged:
                        records.setdefault(owner[key], []).append(
                            (key, cell.to_dict())
                        )
                    for e, batch in records.items():
                        counts[e][2] += store.put_many(batch)
                for e in unit.users:
                    waiting[e] -= 1
                    if done[e] is None and not waiting[e]:
                        finish(e)
            while emitted < len(specs) and done[emitted] is not None:
                yield done[emitted]
                emitted += 1
        yield from done[emitted:]
    finally:
        if owned:
            store.close()


def _check_options(
    trials: int, jobs: int | None, chunk_size: int, engine: str
) -> None:
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    if jobs is not None and jobs < 1:
        # Fail here with a domain error instead of letting
        # ProcessPoolExecutor raise an opaque ValueError later.
        raise ExperimentError(
            f"jobs must be at least 1, got {jobs} (omit it for CPU count)"
        )
    if chunk_size < 1:
        raise ExperimentError(
            f"chunk_size must be at least 1, got {chunk_size}"
        )
    if engine not in ENGINE_NAMES:
        raise ExperimentError(
            f"unknown engine {engine!r}; choose from {ENGINE_NAMES}"
        )


def _resolve_store(
    cache: "TrialStore | str | Path | None",
) -> tuple[TrialStore | None, bool]:
    """Normalize the ``cache`` argument; the bool means "close after"."""
    if cache is None:
        return None, False
    if isinstance(cache, (str, Path)):
        return TrialStore(cache), True
    return cache, False


def _resolve_jobs(jobs: int | None, n_units: int | None = None) -> int:
    """Worker count: explicit ``jobs`` or CPU count, clamped to the work.

    The clamp matters for small sweeps and warm caches: spawning more
    processes than there are dispatched units only pays fork/import
    cost for workers that would exit without ever receiving work.
    """
    resolved = jobs if jobs is not None else (os.cpu_count() or 1)
    if n_units is not None:
        resolved = min(resolved, max(1, n_units))
    return resolved


def _judge(
    engine: str, cells: list[tuple[str, TrialConfig]], seeds: list[int]
) -> list[tuple[str, CellResult]]:
    """The partials of one planned unit, under their cell keys."""
    if engine == "percell":
        ((key, config),) = cells
        return [(key, run_cell(config, seeds))]
    # "paired" defers to the REPRO_KERNEL switch per trial; "paired-ref"
    # pins the reference pipeline (the kernel's oracle).
    return run_paired_cells(
        cells, seeds, False if engine == "paired-ref" else None
    )


def _run_units(units: list[_Unit], engine: str, jobs: int | None):
    """Judge *units* in plan order; yield ``(unit, partials)`` pairs.

    A unit that raised a :class:`ReproError` yields the error in place
    of its partials.  A single unit always runs inline: forking a pool
    to judge one chunk costs more than the chunk (the warm-cache tail
    of a resumed sweep hits this constantly).
    """
    workers = _resolve_jobs(jobs, len(units))
    if workers <= 1:
        for unit in units:
            try:
                judged = _judge(engine, unit.cells, unit.seeds)
            except ReproError as exc:
                judged = exc
            yield unit, judged
        return
    tasks = (
        (u, _judge, (engine, unit.cells, unit.seeds))
        for u, unit in enumerate(units)
    )
    for u, judged in _run_pool(workers, tasks, what="unit"):
        yield units[u], judged


def _run_pool(max_workers: int, tasks, what: str):
    """Run ``(key, callable, args)`` tasks on a process pool, interrupt-safely.

    Yields ``(key, result)`` in task order as the results arrive; a
    task that raised yields its :class:`ReproError` instead, and any
    other worker failure as an :class:`ExperimentError` naming the
    task.  On *any* teardown — KeyboardInterrupt first among them, or
    the consumer closing this generator — queued futures are cancelled
    and the worker processes terminated instead of the default
    ``shutdown(wait=True)``, which would keep computing every queued
    unit after Ctrl-C and strand the user.  Discarding running work is
    safe: results only reach the caller (and any result store) after a
    future completes in-parent.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [(key, pool.submit(fn, *args)) for key, fn, args in tasks]
        for key, fut in futures:
            try:
                result = fut.result()
            except ReproError as exc:
                result = exc
            except Exception as exc:
                result = ExperimentError(f"worker failed on {what} {key}: {exc}")
                result.__cause__ = exc
            yield key, result
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        # shutdown() only stops *queued* work; in-flight chunks would
        # still run to completion (and block interpreter exit joining
        # them).  Terminate the workers so Ctrl-C means now.
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):  # already reaped
                pass
        raise
    pool.shutdown(wait=True)
