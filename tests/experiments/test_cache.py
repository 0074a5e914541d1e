"""Cache-invariance tests for ``run_experiment(cache=...)``.

The store must be invisible in the numbers: cache off, cold and warm
runs — across both engines and serial/parallel execution — produce the
same serialized result, byte for byte.  Comparisons go through
canonical JSON *text* because all-fail cells carry NaN aggregates and
``NaN != NaN`` would mark identical docs as different.  The delta-sweep
test pins the key-granularity design: keys cover (config, seed chunk)
only, so adding a series to a swept grid recomputes nothing else.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.experiments.runner import _resolve_jobs
from repro.store import TrialStore
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=3, n_tasks_range=(12, 16), depth_range=(4, 6))


def small_spec(series=("PURE", "NORM", "ADAPT-L")):
    def config(x, metric):
        return TrialConfig(
            workload=FAST.with_overrides(m=int(x)), metric=metric
        )

    return ExperimentSpec(
        name="cache-invariance",
        title="cache invariance",
        x_label="m",
        x_values=(2, 3),
        series=series,
        config_for=config,
    )


def result_text(spec, *, jobs=1, engine="paired", cache=None):
    result = run_experiment(
        spec, trials=12, seed=99, jobs=jobs, chunk_size=8,
        engine=engine, cache=cache,
    )
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    # json round-trips float64 (and NaN) exactly, and is comparable.
    return json.dumps(doc, sort_keys=True), result.cache_stats


class TestCacheInvariance:
    @pytest.mark.parametrize("engine", ["paired", "paired-ref"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_off_cold_warm_identical(self, tmp_path, engine, jobs):
        spec = small_spec()
        off, off_stats = result_text(spec, jobs=jobs, engine=engine)
        assert off_stats is None  # no cache, no stats
        store = TrialStore(tmp_path / "s")
        cold, cold_stats = result_text(
            spec, jobs=jobs, engine=engine, cache=store
        )
        warm, warm_stats = result_text(
            spec, jobs=jobs, engine=engine, cache=store
        )
        assert cold == off
        assert warm == off
        assert cold_stats.hits == 0 and cold_stats.misses > 0
        assert warm_stats.misses == 0
        assert warm_stats.hits == cold_stats.misses
        assert warm_stats.hit_rate == 1.0

    def test_cross_engine_and_jobs_share_the_store(self, tmp_path):
        """Chunk keys ignore jobs and engine, so any run warms every other."""
        spec = small_spec()
        store = TrialStore(tmp_path / "s")
        cold, _ = result_text(spec, jobs=1, engine="paired-ref", cache=store)
        warm, warm_stats = result_text(
            spec, jobs=4, engine="paired", cache=store
        )
        assert warm == cold
        assert warm_stats.misses == 0

    def test_delta_series_recomputes_only_the_new_series(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        base_text, base_stats = result_text(
            small_spec(("PURE", "NORM")), cache=store
        )
        delta_text, delta_stats = result_text(
            small_spec(("PURE", "NORM", "ADAPT-L")), cache=store
        )
        # 12 trials / chunk_size 8 -> 2 chunks per x, 2 x-values: the
        # widened sweep misses exactly the 4 new-series chunks and hits
        # the 8 existing ones.
        assert base_stats.misses == 8 and base_stats.hits == 0
        assert delta_stats.misses == 4 and delta_stats.hits == 8
        off_text, _ = result_text(small_spec(("PURE", "NORM", "ADAPT-L")))
        assert delta_text == off_text
        # The base sweep's cells are a strict subset of the widened one.
        def cells_by_label(text):
            doc = json.loads(text)
            return {
                (c["x_index"], doc["series"][c["series_index"]]): {
                    k: v
                    for k, v in c.items()
                    if k not in ("x_index", "series_index")
                }
                for c in doc["cells"]
            }

        base_cells = cells_by_label(base_text)
        delta_cells = cells_by_label(delta_text)
        for key, cell in base_cells.items():
            assert json.dumps(delta_cells[key], sort_keys=True) == json.dumps(
                cell, sort_keys=True
            )

    def test_raised_trial_count_reuses_existing_chunks(self, tmp_path):
        """trials=8 stores one chunk per cell; trials=12 reuses it."""
        spec = small_spec(("PURE",))
        store = TrialStore(tmp_path / "s")
        run_experiment(
            spec, trials=8, seed=99, jobs=1, chunk_size=8, cache=store
        )
        result = run_experiment(
            spec, trials=12, seed=99, jobs=1, chunk_size=8, cache=store
        )
        assert result.cache_stats.hits == 2  # the [0:8) chunk of each x
        assert result.cache_stats.misses == 2  # the new [8:12) chunks

    def test_cache_accepts_a_path_and_owns_the_store(self, tmp_path):
        spec = small_spec()
        off, _ = result_text(spec)
        cold, _ = result_text(spec, cache=str(tmp_path / "s"))
        warm, warm_stats = result_text(spec, cache=tmp_path / "s")
        assert cold == off and warm == off
        assert warm_stats.misses == 0

    def test_cache_stats_not_serialized(self, tmp_path):
        result = run_experiment(
            small_spec(("PURE",)), trials=8, seed=99, jobs=1,
            cache=tmp_path / "s",
        )
        assert result.cache_stats is not None
        assert "cache_stats" not in result.to_dict()


class TestResolveJobs:
    def test_explicit_jobs_clamped_to_units(self):
        assert _resolve_jobs(8, 3) == 3
        assert _resolve_jobs(2, 100) == 2

    def test_zero_units_still_yields_one_worker(self):
        assert _resolve_jobs(8, 0) == 1

    def test_default_is_cpu_count_at_least_one(self):
        assert _resolve_jobs(None) >= 1
        assert _resolve_jobs(None, 1) == 1
