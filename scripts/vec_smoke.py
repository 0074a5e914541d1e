#!/usr/bin/env python
"""End-to-end smoke test of the vectorized tier (used by CI).

Three gates, each fatal:

1. **CLI bit-identity** — a tiny sweep through ``python -m repro
   experiment`` with ``REPRO_VEC=1`` (vectorized tier, seed-batch
   driver) must print the byte-identical report of an ``--engine
   paired-ref`` reference run.  This is the oracle contract on the full
   user path: CLI → paired engine → batch driver → slicing → EDF →
   report.
2. **Fallback bit-identity** — the same ``REPRO_VEC=1`` run with
   ``REPRO_VEC_NO_NUMPY=1`` (NumPy reported absent) must fall through
   to the compiled kernel and still match the reference byte for byte.
3. **Speedup floor** — the batched stage pipeline (estimates → weights
   → lockstep EDF over a seed batch, all four metrics folded into one
   EDF call) must beat the same stages through the per-lane compiled
   kernel by at least ``VEC_SMOKE_TARGET`` (default 2.0× — a smoke
   floor loose enough for loaded CI boxes), with every lane's schedule
   bit-identical to the compiled kernel and a seed subsample identical
   to the reference oracle.

Usage::

    PYTHONPATH=src python scripts/vec_smoke.py
    make vec-smoke
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time

from repro.core.estimation import get_estimator
from repro.core.metrics import METRIC_NAMES, get_metric
from repro.experiments import TrialConfig
from repro.experiments.context import TrialContext
from repro.experiments.runner import run_trial
from repro.kernel import vec as V
from repro.kernel.edf import kernel_schedule_edf
from repro.kernel.metrics import kernel_weights
from repro.kernel.slicing import kernel_slice
from repro.workload import WorkloadParams

FIGURE = "fig2"
TRIALS = "8"
SMOKE_LANES = 256
SMOKE_REPEATS = 3


def run_once(env_overrides: dict[str, str], *args: str) -> str:
    """One CLI run; returns the report text (wall-clock normalized)."""
    env = dict(os.environ)
    env.update(env_overrides)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "experiment", FIGURE,
            "--trials", TRIALS, "--jobs", "1", *args,
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"FATAL: CLI exited {proc.returncode} ({env_overrides})")
    return re.sub(r"elapsed=\S+", "elapsed=*", proc.stdout)


def vec_leg(
    lanes: int, repeats: int, oracle_checks: int
) -> tuple[float, float, int]:
    """Time the vectorized stage pipeline against the compiled kernel.

    Returns ``(kernel_best, vec_best, lanes_compared)`` in seconds.
    Both sides run the identical work: for each of the paper's four
    metrics over one batch of *lanes* seeds, the estimate stage, the
    metric weight stage, and the EDF schedule over precomputed slicing
    windows — the scalar side through the per-lane compiled kernel
    functions, the vec side through the batch APIs with all four
    metrics folded into one lockstep EDF call (the seed-batch driver's
    production shape).  Per-rep cache clears make every rep recompute
    the value stages; structure arrays (compiled workloads, windows)
    are prewarmed for both sides alike.  No
    :func:`~repro.kernel.vec.lane_stacks` scope is open, so every vec
    rep stacks its lanes afresh.

    Raises ``SystemExit`` on any bit-identity mismatch — against the
    compiled kernel per lane, and against the reference oracle
    (``use_kernel=False``) on an *oracle_checks*-seed subsample.
    """
    params = WorkloadParams(m=4)
    contexts = TrialContext.from_seeds(params, list(range(lanes)))
    cws = [c.compiled for c in contexts]
    metrics = [get_metric(name, TrialConfig().adaptive) for name in METRIC_NAMES]
    est_obj = get_estimator("WCET-AVG")

    # Prewarm the structure arrays both tiers share (pure functions of
    # the workloads) and the slicing windows the EDF stage consumes.
    for cw in cws:
        cw.parallel_set_sizes()
        V.vec_arrays(cw)
    windows = {}
    for metric in metrics:
        for cw in cws:
            est = cw.estimates_from_vals(est_obj.name, est_obj.combine)
            weights = kernel_weights(cw, metric, est, est_obj.name)
            ka = kernel_slice(cw, metric, weights)
            windows[(metric.name, id(cw))] = (ka.win_a, ka.win_d)
    all_lanes = [
        (cw, *windows[(metric.name, id(cw))])
        for metric in metrics
        for cw in cws
    ]

    def clear():
        for cw in cws:
            cw._est_lists.clear()
            cw._weight_lists.clear()

    def kernel_side():
        clear()
        out = []
        for metric in metrics:
            for cw in cws:
                est = cw.estimates_from_vals(est_obj.name, est_obj.combine)
                kernel_weights(cw, metric, est, est_obj.name)
                win_a, win_d = windows[(metric.name, id(cw))]
                out.append(kernel_schedule_edf(cw, win_a, win_d))
        return out

    def vec_side():
        clear()
        for metric in metrics:
            ests = V.vec_estimates_batch(cws, est_obj.name)
            V.vec_weights_batch(cws, metric, ests, est_obj.name)
        return V.vec_schedule_edf_batch(all_lanes)

    def fsame(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    ks_all, vs_all = kernel_side(), vec_side()
    for ks, vs in zip(ks_all, vs_all):
        same = (
            ks.feasible == vs.feasible
            and ks.failed == vs.failed
            and (
                not vs.feasible
                or (
                    fsame(ks.makespan, vs.makespan)
                    and fsame(ks.max_lateness(), vs.max_lateness())
                )
            )
        )
        if not same:
            print("FATAL: vec tier diverges from the compiled kernel")
            raise SystemExit(1)

    # Reference-oracle subsample: full run_trial outcomes, vec tier vs
    # the string-keyed reference pipeline on the default tie-break.
    fields = (
        "success", "degenerate", "n_tasks", "min_laxity",
        "makespan", "max_lateness", "failed_task",
    )
    step = max(1, lanes // max(1, oracle_checks))
    for sp in range(0, lanes, step):
        for metric_name in METRIC_NAMES:
            config = TrialConfig(workload=params, metric=metric_name)
            ref = run_trial(config, sp, contexts[sp], use_kernel=False)
            fast = run_trial(
                config, sp, contexts[sp], use_kernel=True, use_vec=True
            )
            for name in fields:
                a, b = getattr(ref, name), getattr(fast, name)
                if not (
                    a == b
                    or (
                        isinstance(a, float)
                        and isinstance(b, float)
                        and math.isnan(a)
                        and math.isnan(b)
                    )
                ):
                    print(
                        "FATAL: vec tier diverges from the reference "
                        f"oracle (seed {sp}, {metric_name}, {name}: "
                        f"{a!r} != {b!r})"
                    )
                    raise SystemExit(1)

    kernel_best = vec_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel_side()
        kernel_best = min(kernel_best, time.perf_counter() - start)
        start = time.perf_counter()
        vec_side()
        vec_best = min(vec_best, time.perf_counter() - start)
    return kernel_best, vec_best, len(all_lanes)


def stage_speedup() -> float:
    """Best-of-``SMOKE_REPEATS`` interleaved stage-pipeline ratio."""
    kernel_s, vec_s, lanes = vec_leg(SMOKE_LANES, SMOKE_REPEATS, 8)
    print(
        f"stage pipeline: kernel {kernel_s:.3f} s, vec {vec_s:.3f} s "
        f"({lanes} lanes, bit-identical)"
    )
    return kernel_s / vec_s


def main() -> int:
    if not V.vec_available():
        print("FATAL: numpy unavailable — the vec smoke cannot run",
              file=sys.stderr)
        return 1

    target = float(os.environ.get("VEC_SMOKE_TARGET", "2.0"))
    failures = []

    reference = run_once({"REPRO_VEC": "0"}, "--engine", "paired-ref")
    print(f"reference run (paired-ref):     {len(reference)} bytes of report")
    vec = run_once({"REPRO_VEC": "1"})
    print(f"vec run       (REPRO_VEC=1):    {len(vec)} bytes of report")
    if vec != reference:
        failures.append("REPRO_VEC=1 report differs from the reference report")

    fallback = run_once({"REPRO_VEC": "1", "REPRO_VEC_NO_NUMPY": "1"})
    print(f"fallback run  (numpy absent):   {len(fallback)} bytes of report")
    if fallback != reference:
        failures.append(
            "NumPy-absent fallback report differs from the reference report"
        )

    speedup = stage_speedup()
    print(f"vec stage speedup: {speedup:.2f}x (floor {target}x)")
    if speedup < target:
        failures.append(
            f"vec stage speedup {speedup:.2f}x is below the {target}x floor"
        )

    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("vec smoke OK: bit-identical reports, fallback sound, "
          "speedup floor cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
