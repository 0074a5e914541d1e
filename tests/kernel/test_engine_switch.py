"""The kernel's one switch, engine="paired-ref", and inline units.

Covers the operational contract around the fast path: ``--engine
paired`` and ``--engine paired-ref`` round-trip through the CLI with
byte-identical reports, the ``paired-ref`` engine pins a run to the
reference pipeline, and a single dispatched work unit never pays for a
process pool (the warm-cache tail regression).
"""

import json
import re

import pytest

import repro.experiments.runner as runner_mod
from repro.cli import main
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.experiments.runner import _resolve_jobs
from repro.workload import WorkloadParams


def _tiny_spec(series=("PURE", "ADAPT-L")) -> ExperimentSpec:
    base = WorkloadParams(n_tasks_range=(8, 14), depth_range=(3, 5))

    def config_for(x, metric: str) -> TrialConfig:
        return TrialConfig(workload=base.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="kernel-switch-test",
        title="t",
        x_label="m",
        x_values=(3,),
        series=series,
        config_for=config_for,
    )


def _doc_of(result) -> str:
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    return json.dumps(doc, sort_keys=True)


class TestEnvSwitch:
    """The oracle switch at the CLI boundary: ``--engine`` alone."""

    def test_cli_roundtrip_is_byte_identical(self, tmp_path, capsys):
        """--engine paired and paired-ref print and write the same report."""
        reports = {}
        docs = {}
        for engine in ("paired", "paired-ref"):
            out_dir = tmp_path / engine
            code = main(
                [
                    "fig2",
                    "--trials", "2",
                    "--seed", "11",
                    "--jobs", "1",
                    "--engine", engine,
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
            reports[engine] = re.sub(
                r"elapsed=\S+", "elapsed=*", capsys.readouterr().out
            )
            doc = json.loads((out_dir / "fig2.json").read_text())
            doc.pop("elapsed_seconds", None)
            docs[engine] = json.dumps(doc, sort_keys=True)
        assert reports["paired"] == reports["paired-ref"]
        assert docs["paired"] == docs["paired-ref"]

    def test_percell_engine_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig2", "--engine", "percell"])
        assert exc.value.code == 2
        assert "invalid choice: 'percell'" in capsys.readouterr().err


class TestPairedRefEngine:
    def test_paired_ref_equals_paired(self):
        spec = _tiny_spec()
        fast = run_experiment(
            spec, trials=8, seed=3, jobs=1, engine="paired"
        )
        ref = run_experiment(
            spec, trials=8, seed=3, jobs=1, engine="paired-ref"
        )
        assert _doc_of(fast) == _doc_of(ref)


class TestResolveJobs:
    def test_explicit_jobs_clamped_to_units(self):
        assert _resolve_jobs(8, 3) == 3
        assert _resolve_jobs(2, None) == 2
        assert _resolve_jobs(4, 0) == 1  # no units still means one worker

    def test_default_jobs_clamped_to_units(self):
        assert _resolve_jobs(None, 1) == 1


class _PoisonedPool:
    """ProcessPoolExecutor stand-in that fails the test if instantiated."""

    def __init__(self, *args, **kwargs):
        raise AssertionError(
            "a process pool was spawned for a single work unit"
        )


class TestSingleUnitInline:
    """One dispatched unit must run inline in the parent, pool-free."""

    @pytest.mark.parametrize("engine", ["paired", "paired-ref"])
    def test_cold_single_unit_runs_inline(self, engine, monkeypatch, tmp_path):
        spec = _tiny_spec()
        baseline = run_experiment(
            spec, trials=6, seed=7, jobs=1, chunk_size=6, engine=engine
        )
        monkeypatch.setattr(
            runner_mod, "ProcessPoolExecutor", _PoisonedPool
        )
        # trials == chunk_size and one x-value: exactly one work unit,
        # which must run inline even at jobs=4.
        result = run_experiment(
            spec, trials=6, seed=7, jobs=4, chunk_size=6, engine=engine
        )
        assert _doc_of(result) == _doc_of(baseline)

    def test_warm_cache_single_missing_unit_runs_inline(
        self, monkeypatch, tmp_path
    ):
        spec = _tiny_spec()
        store = tmp_path / "store"
        cold = run_experiment(
            spec,
            trials=12,
            seed=7,
            jobs=1,
            chunk_size=6,
            engine="paired",
            cache=store,
        )
        # Warm re-run with one extra chunk of trials: only the new
        # chunk is dispatched, so even jobs=4 must stay pool-free.
        monkeypatch.setattr(
            runner_mod, "ProcessPoolExecutor", _PoisonedPool
        )
        warm = run_experiment(
            spec,
            trials=18,
            seed=7,
            jobs=4,
            chunk_size=6,
            engine="paired",
            cache=store,
        )
        baseline = run_experiment(
            spec, trials=18, seed=7, jobs=1, chunk_size=6, engine="paired"
        )
        assert _doc_of(warm) == _doc_of(baseline)
        assert _doc_of(cold) != _doc_of(warm)  # more trials, new numbers
