"""The joint experiment planner (``run_experiments`` / ``iter_experiments``).

Planning several experiments as one job must not change a single byte
of any result: each spec's result from a joint run equals the result of
running that spec alone, across job counts, engines and store use.  The
planner's point is the work it no longer repeats, so the call counts of
the trial layers at ``--all`` are pinned too, and the failure semantics
(a failing unit fails exactly the experiments that use it) are checked
through the library and the CLI.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.cli.main import main
from repro.errors import MetricError
from repro.experiments import (
    FIGURES,
    ExperimentSpec,
    TrialConfig,
    get_figure_spec,
    iter_experiments,
    run_experiment,
    run_experiments,
)
from repro.store import TrialStore
from repro.workload import WorkloadParams

ALL = sorted(FIGURES)
TRIALS, CHUNK, SEED = 3, 2, 7  # 3 trials in chunks of 2: the last is partial
FAST = WorkloadParams(m=3, n_tasks_range=(10, 12), depth_range=(3, 4))


def canonical(result) -> str:
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    # json round-trips float64 (and NaN) exactly, and is comparable.
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def alone() -> dict[str, str]:
    """Every figure spec run on its own (the reference of the joint runs)."""
    return {
        name: canonical(
            run_experiment(
                get_figure_spec(name),
                trials=TRIALS,
                seed=SEED,
                jobs=1,
                chunk_size=CHUNK,
            )
        )
        for name in ALL
    }


def run_all(**options):
    return run_experiments(
        [get_figure_spec(name) for name in ALL],
        trials=TRIALS,
        seed=SEED,
        chunk_size=CHUNK,
        **options,
    )


class TestJointEqualsAlone:
    @pytest.mark.parametrize(
        "jobs,engine",
        [(1, "paired"), (2, "paired"), (1, "paired-ref"), (2, "paired-ref")],
    )
    def test_every_figure_byte_identical(self, alone, jobs, engine):
        results = run_all(jobs=jobs, engine=engine)
        assert [r.name for r in results] == ALL
        for name, result in zip(ALL, results):
            assert canonical(result) == alone[name], name

    @pytest.mark.parametrize("jobs,engine", [(1, "paired"), (2, "paired-ref")])
    def test_with_a_store_cold_then_all_hits(self, alone, tmp_path, jobs, engine):
        store = TrialStore(tmp_path / "s")
        before = store.stats()
        cold = run_all(jobs=jobs, engine=engine, cache=store)
        cold_run = store.stats().since(before)
        warm = run_all(jobs=jobs, engine=engine, cache=store)
        for name, c, w in zip(ALL, cold, warm):
            assert canonical(c) == alone[name], name
            assert canonical(w) == alone[name], name
            assert w.cache_stats.misses == 0 and w.cache_stats.appends == 0
        # Each key is attributed to the experiment that planned it first,
        # so the per-experiment stats add up to the run's store activity.
        assert sum(r.cache_stats.hits for r in cold) == cold_run.hits == 0
        assert sum(r.cache_stats.misses for r in cold) == cold_run.misses
        assert sum(r.cache_stats.appends for r in cold) == cold_run.appends
        assert cold_run.appends == cold_run.misses > 0
        assert sum(r.cache_stats.hits for r in warm) == cold_run.misses
        store.close()


def count_calls(monkeypatch, module, attr: str) -> list[int]:
    """Count the calls of ``module.attr`` through every ``repro`` global
    bound to it (``from ... import`` copies included)."""
    original = vars(module)[attr]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, other in list(sys.modules.items()):
        if other is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if vars(other).get(attr) is original:
            monkeypatch.setattr(other, attr, counted)
    return calls


def test_all_figures_generate_judge_and_slice_each_distinct_item_once(monkeypatch):
    """At ``--all`` the 12 figures ask for 69 (workload, x) pairs and 194
    cells; 39 pairs and 174 cells are distinct, and series that differ
    only in scheduler or bus model share their slicing runs."""
    import repro.experiments.runner as runner
    import repro.kernel.slicing as slicing
    import repro.workload.generator as generator

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.delenv("REPRO_VEC", raising=False)
    generated = count_calls(monkeypatch, generator, "generate_workload")
    judged = count_calls(monkeypatch, runner, "run_trial")
    sliced = count_calls(monkeypatch, slicing, "kernel_slice")
    trials = 2
    run_experiments(
        [get_figure_spec(name) for name in ALL], trials=trials, seed=SEED, jobs=1
    )
    assert generated[0] == 39 * trials
    assert judged[0] == 174 * trials
    assert 0 < sliced[0] <= 159 * trials


def fast_spec(name: str, metric: str, m: int = 3) -> ExperimentSpec:
    def config(olr, _series):
        return TrialConfig(
            workload=FAST.with_overrides(m=m, olr=float(olr)), metric=metric
        )

    return ExperimentSpec(
        name=name,
        title=name,
        x_label="OLR",
        x_values=(0.6, 0.9),
        series=(metric,),
        config_for=config,
    )


class TestFailures:
    def test_a_failing_unit_fails_exactly_its_users(self):
        specs = [
            fast_spec("bad", "BOGUS"),  # unknown metric: its unit raises
            fast_spec("elsewhere", "PURE", m=2),  # other workload, other units
            fast_spec("shares-unit", "PURE"),  # same workload as "bad"
        ]
        outcomes = list(iter_experiments(specs, trials=2, seed=SEED, jobs=1))
        assert isinstance(outcomes[0], MetricError)
        assert outcomes[1].name == "elsewhere"
        assert canonical(outcomes[1]) == canonical(
            run_experiment(specs[1], trials=2, seed=SEED, jobs=1)
        )
        assert isinstance(outcomes[2], MetricError)
        with pytest.raises(MetricError, match="BOGUS"):
            run_experiments(specs, trials=2, seed=SEED, jobs=1)

    def test_results_stream_before_later_units_run(self, monkeypatch):
        import repro.workload.generator as generator

        generated = count_calls(monkeypatch, generator, "generate_workload")
        specs = [fast_spec("first", "PURE", m=2), fast_spec("second", "PURE")]
        outcomes = iter_experiments(specs, trials=2, seed=SEED, jobs=1)
        assert next(outcomes).name == "first"
        assert generated[0] == 2 * 2  # only the first spec's 2 x-points ran
        assert next(outcomes).name == "second"
        assert generated[0] == 2 * 2 * 2


def write_config(path, metric: str, m: int) -> str:
    path.write_text(
        json.dumps(
            {
                "name": f"cfg-{metric.lower()}",
                "title": "t",
                "x": {"field": "workload.olr", "values": [0.8]},
                "series": [{"label": metric, "set": {"metric": metric}}],
                "base": {
                    "workload.m": m,
                    "workload.n_tasks_range": [10, 12],
                    "workload.depth_range": [3, 4],
                },
            }
        )
    )
    return str(path)


class TestCliErrors:
    def run(self, tmp_path, *args: str) -> int:
        return main(
            [*args, "--trials", "1", "--jobs", "1", "--out", str(tmp_path / "out")]
        )

    def test_unknown_name_fails_only_itself(self, tmp_path, capsys):
        assert self.run(tmp_path, "fig99", "abl-kl") == 1
        assert "error running 'fig99'" in capsys.readouterr().err
        assert (tmp_path / "out" / "abl-kl.json").exists()

    def test_unloadable_config_fails_only_itself(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert self.run(tmp_path, "abl-kl", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        assert "error running" in err and "broken.json" in err
        assert (tmp_path / "out" / "abl-kl.json").exists()

    def test_failing_unit_fails_only_its_experiment(self, tmp_path, capsys):
        # Different workloads, so the two experiments share no unit.
        good = write_config(tmp_path / "good.json", "PURE", m=2)
        bad = write_config(tmp_path / "bad.json", "BOGUS", m=3)
        assert self.run(tmp_path, "--config", bad, "--config", good) == 1
        err = capsys.readouterr().err
        assert "error running 'cfg-bogus'" in err
        assert "cfg-pure" not in err
        assert (tmp_path / "out" / "cfg-pure.json").exists()
        assert not (tmp_path / "out" / "cfg-bogus.json").exists()

    def test_bad_jobs_fails_every_experiment(self, capsys):
        assert main(["abl-kl", "abl-kg", "--trials", "1", "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("jobs must be at least 1") == 2
        assert "error running 'abl-kl'" in err and "error running 'abl-kg'" in err
