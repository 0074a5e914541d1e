"""The trial context's content memo and the kernel-sliced fallback.

Every distinct kernel computation on a workload runs once, whichever
series asks for it: the slicing is keyed by the sharing rule and the
weight values, the kernel schedule by the assignment, the bus model
and the lateness mode.  The fallback series (SL/FIFO/LLF schedulers,
strict locality) read the same memo and schedule on the kernel loop,
and must still equal the reference pipeline byte for byte.
"""

from __future__ import annotations

import json

import pytest

import repro.kernel.edf as kedf
import repro.kernel.slicing as kslicing
from repro.cli.main import main
from repro.core.metrics import AdaptiveParams
from repro.experiments import TrialConfig, get_figure_spec
from repro.experiments.context import TrialContext
from repro.experiments.runner import run_trial
from repro.workload import WorkloadParams

ESTIMATORS = ("WCET-AVG", "WCET-MAX", "WCET-MIN")


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``kernel_slice`` and ``kernel_schedule_edf`` calls."""
    counts = {"slice": 0, "edf": 0}
    slice_fn, edf_fn = kslicing.kernel_slice, kedf.kernel_schedule_edf

    def counted_slice(*args, **kwargs):
        counts["slice"] += 1
        return slice_fn(*args, **kwargs)

    def counted_edf(*args, **kwargs):
        counts["edf"] += 1
        return edf_fn(*args, **kwargs)

    monkeypatch.setattr(kslicing, "kernel_slice", counted_slice)
    monkeypatch.setattr(kedf, "kernel_schedule_edf", counted_edf)
    return counts


def fig6_context(n_classes: int, etd: float = 0.5):
    """A fig6 workload (m = 3) whose platform uses *n_classes* classes."""
    config = get_figure_spec("fig6").config_for(etd, "WCET-AVG")
    for seed in range(200):
        ctx = TrialContext.from_seed(config.workload, seed)
        if len(ctx.platform.used_class_ids()) == n_classes:
            return config.workload, seed, ctx
    raise AssertionError(f"no {n_classes}-class platform in 200 seeds")


def outcomes(configs, seed, ctx, use_kernel=None):
    return [run_trial(c, seed, ctx, use_kernel=use_kernel) for c in configs]


def same(a, b):
    return json.dumps([o.__dict__ for o in a], default=str) == json.dumps(
        [o.__dict__ for o in b], default=str
    )


def test_fig6_one_class_platform_slices_once_for_three_estimators(calls):
    params, seed, ctx = fig6_context(1)
    spec = get_figure_spec("fig6")
    configs = [spec.config_for(params.etd, est) for est in ESTIMATORS]
    got = outcomes(configs, seed, ctx)
    assert calls == {"slice": 1, "edf": 1}
    # Each estimator judged alone, and the reference oracle, agree.
    alone = [
        run_trial(c, seed, TrialContext.from_seed(params, seed))
        for c in configs
    ]
    assert same(got, alone)
    assert same(got, outcomes(configs, seed, ctx, use_kernel=False))


def test_estimates_that_differ_slice_separately(calls):
    params, seed, ctx = fig6_context(3)
    spec = get_figure_spec("fig6")
    configs = [spec.config_for(params.etd, est) for est in ESTIMATORS]
    outcomes(configs, seed, ctx)
    assert calls["slice"] == 3


def test_zero_surplus_adaptive_metrics_share_pure_slicing(calls):
    params = WorkloadParams(m=3)
    ctx = TrialContext.from_seed(params, 17)
    flat = AdaptiveParams(k_g=0.0, k_l=0.0)
    configs = [
        TrialConfig(workload=params, metric=metric, adaptive=flat)
        for metric in ("PURE", "ADAPT-G", "ADAPT-L")
    ]
    got = outcomes(configs, 17, ctx)
    assert calls == {"slice": 1, "edf": 1}
    assert same(got, outcomes(configs, 17, ctx, use_kernel=False))


def test_schedule_memo_is_keyed_by_bus_and_lateness(calls):
    params = WorkloadParams(m=3, olr=0.6)
    ctx = TrialContext.from_seed(params, 4)
    configs = [
        TrialConfig(workload=params, contention_bus=bus, measure_lateness=late)
        for bus in (False, True)
        for late in (False, True)
    ]
    got = outcomes(configs + configs, 4, ctx)
    assert calls == {"slice": 1, "edf": 4}
    assert same(got, outcomes(configs + configs, 4, ctx, use_kernel=False))


def test_fallback_series_reuse_the_kernel_slicing(calls):
    """SL/FIFO/LLF read the EDF series' slicing and run the kernel
    loop; strict locality slices its exact estimates once."""
    params = WorkloadParams(m=3, olr=0.8)
    ctx = TrialContext.from_seed(params, 8)
    schedulers = ("EDF-LIST", "LLF-LIST", "SL-LIST", "FIFO-LIST")
    configs = [
        TrialConfig(workload=params, scheduler=s) for s in schedulers
    ] + [TrialConfig(workload=params, locality="strict")] * 2
    got = outcomes(configs, 8, ctx)
    assert calls == {"slice": 2, "edf": 1 + 3 + 2}
    assert same(got, outcomes(configs, 8, ctx, use_kernel=False))


@pytest.mark.parametrize("figure", ["abl-sched", "abl-locality"])
def test_fallback_figures_byte_identical_to_paired_ref(figure, tmp_path, capsys):
    files = {}
    for engine in ("paired", "paired-ref"):
        out = tmp_path / engine
        code = main(
            [
                figure,
                "--trials", "6",
                "--seed", "2026",
                "--jobs", "1",
                "--engine", engine,
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads((out / f"{figure}.json").read_text())
        doc.pop("elapsed_seconds")
        files[engine] = (
            json.dumps(doc, sort_keys=True),
            (out / f"{figure}.csv").read_bytes(),
            (out / f"{figure}.md").read_bytes(),
        )
    assert files["paired"] == files["paired-ref"]
