"""Equivalence of the paired engine and per-cell ``run_cell`` blocks.

The paired engine restructures the work units (one generated workload
per seed, judged by every series) but must not change a single bit of
any cell: trial seeds depend only on ``(root_seed, x_index,
trial_index)``, and everything a :class:`TrialContext` shares is a pure
function of the workload.  :func:`run_cell` — one series at a time,
each trial generating its own workload — is what the robustness and 2-D
sweeps run, so these tests pin that contract end to end by comparing
full serialized results across the two, job counts, and chunk sizes.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.experiments.runner import ENGINE_NAMES, _cell_seeds, run_cell
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=3, n_tasks_range=(12, 16), depth_range=(4, 6))


def small_spec():
    def config(x, metric):
        return TrialConfig(
            workload=FAST.with_overrides(m=int(x)), metric=metric
        )

    return ExperimentSpec(
        name="engine-equivalence",
        title="engine equivalence",
        x_label="m",
        x_values=(2, 3),
        series=("PURE", "NORM", "ADAPT-L"),
        config_for=config,
    )


def result_doc(engine, *, jobs=1, chunk_size=8, trials=12):
    doc = run_experiment(
        small_spec(), trials=trials, seed=99, jobs=jobs,
        chunk_size=chunk_size, engine=engine,
    ).to_dict()
    # Wall-clock is the one legitimately engine-dependent field.
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def per_cell_doc(*, chunk_size=8, trials=12):
    """The paired engine's result, recomputed cell by cell by run_cell."""
    spec = small_spec()
    result = run_experiment(
        spec, trials=trials, seed=99, jobs=1, chunk_size=chunk_size
    )
    for xi, _x, group in spec.cells_by_x():
        seeds = _cell_seeds(99, xi, trials)
        for si, _label, config in group:
            cell = None
            for lo in range(0, trials, chunk_size):
                part = run_cell(config, seeds[lo : lo + chunk_size])
                cell = part if cell is None else cell.merged(part)
            result.cells[(xi, si)] = cell
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


class TestEngineEquivalence:
    def test_serial_engines_bit_identical(self):
        assert per_cell_doc() == result_doc("paired")

    def test_parallel_paired_matches_serial_percell(self):
        assert per_cell_doc() == result_doc("paired", jobs=2)

    def test_chunking_preserves_counts_exactly_and_means_closely(self):
        """chunk_size regroups partial sums: counts must stay exact.

        The mean-laxity/lateness merge is a weighted average of partial
        means, so regrouping may move those by floating-point rounding —
        everything counted (successes, trials, degenerates) is exact.
        """
        baseline = run_experiment(
            small_spec(), trials=12, seed=99, jobs=1, chunk_size=12
        )
        for chunk_size in (1, 5):
            other = run_experiment(
                small_spec(), trials=12, seed=99, jobs=1,
                chunk_size=chunk_size,
            )
            for key, cell in baseline.cells.items():
                o = other.cells[key]
                assert o.estimate == cell.estimate
                assert o.degenerate == cell.degenerate
                assert o.lateness_trials == cell.lateness_trials
                assert o.mean_min_laxity == pytest.approx(
                    cell.mean_min_laxity, rel=1e-9, nan_ok=True
                )
                assert o.mean_max_lateness == pytest.approx(
                    cell.mean_max_lateness, rel=1e-9, nan_ok=True
                )


class TestEngineSelection:
    def test_engine_names_registry(self):
        assert set(ENGINE_NAMES) == {"paired", "paired-ref"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            run_experiment(small_spec(), trials=1, jobs=1, engine="turbo")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ExperimentError, match="chunk_size"):
            run_experiment(small_spec(), trials=1, jobs=1, chunk_size=0)
