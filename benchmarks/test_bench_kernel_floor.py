"""The compiled kernel's speed floor over the reference pipeline.

``engine="paired"`` runs the compiled kernel; ``engine="paired-ref"``
runs the same paired engine on the string-keyed reference SLICING and
EDF code, the kernel's oracle.  The kernel exists to be faster, so this
bench pins the contract: on a 4-series sweep shaped like the paper's
Figs. 2–4 (one curve per metric, the §5.1 default workloads, m ∈ {3,
6}), serial, the two engines' results are byte-identical and the
kernel is at least ``KERNEL_FLOOR`` times faster.  The legs are timed
interleaved, best of ``REPEATS`` each, so ambient load hits both alike.
"""

from __future__ import annotations

import json
import time

from repro.core.metrics import METRIC_NAMES
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.workload import WorkloadParams

KERNEL_FLOOR = 1.5
TRIALS = 96
REPEATS = 5
ENGINES = ("paired-ref", "paired")


def _spec() -> ExperimentSpec:
    base = WorkloadParams()

    def config_for(x, metric: str) -> TrialConfig:
        return TrialConfig(workload=base.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="kernel-floor",
        title="Kernel over reference (4 metrics over system size)",
        x_label="processors m",
        x_values=(3, 6),
        series=METRIC_NAMES,
        config_for=config_for,
    )


def test_kernel_speed_floor_over_reference(benchmark):
    spec = _spec()
    best = dict.fromkeys(ENGINES, float("inf"))
    docs: dict[str, str] = {}

    def interleaved() -> None:
        for _ in range(REPEATS):
            for engine in ENGINES:
                start = time.perf_counter()
                result = run_experiment(
                    spec, trials=TRIALS, seed=2026, jobs=1, engine=engine
                )
                best[engine] = min(best[engine], time.perf_counter() - start)
                doc = result.to_dict()
                doc.pop("elapsed_seconds")
                docs[engine] = json.dumps(doc, sort_keys=True)

    benchmark.pedantic(interleaved, rounds=1, iterations=1)

    speedup = best["paired-ref"] / best["paired"]
    benchmark.extra_info.update(
        paired_ref_seconds=best["paired-ref"],
        paired_seconds=best["paired"],
        kernel_speedup=speedup,
    )
    print(
        f"\npaired-ref {best['paired-ref']:.3f} s, paired "
        f"{best['paired']:.3f} s: kernel {speedup:.2f}x "
        f"(floor {KERNEL_FLOOR}x)"
    )
    assert docs["paired"] == docs["paired-ref"]
    assert speedup >= KERNEL_FLOOR
