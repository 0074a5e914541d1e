"""Kernel trial execution: dispatch and support predicate.

The kernel replaces the string-keyed reference pipeline for the
configurations the Monte Carlo experiments actually sweep — relaxed
locality, the plain EDF list scheduler, the paper's four metrics —
in :func:`run_trial_kernel`.  The rest go through
:func:`repro.experiments.runner.run_trial`'s fallback:

* strict locality and the SL/FIFO/LLF list schedulers still slice on
  the kernel (:func:`kernel_assignment`, through the same content
  memo) and schedule on the kernel loop, which their schedulers run
  when handed the compiled workload (ready-queue key, pinned
  processors);
* custom metric objects slice on the reference implementation.

The reference implementation remains the oracle the kernel is tested
bit-identical against.  ``engine="paired-ref"`` in
:func:`repro.experiments.runner.run_experiment` (``use_kernel=False``
per trial) forces the reference path for one run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.estimation import get_estimator
from ..core.metrics import get_metric
from .metrics import KERNEL_METRIC_TYPES, kernel_weights
from .slicing import KernelAssignment, kernel_slice

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import CriticalPathMetric
    from ..experiments.context import TrialContext
    from ..experiments.spec import TrialConfig, TrialOutcome

__all__ = [
    "kernel_assignment",
    "kernel_supported",
    "run_trial_kernel",
    "run_trial_vec",
]


def kernel_supported(config: "TrialConfig") -> bool:
    """Whether :func:`run_trial_kernel` runs *config* whole."""
    if config.locality != "relaxed":
        return False
    # Exactly the registry names resolving to the plain EDF scheduler;
    # the other list schedulers reach the kernel loop through their own
    # ``schedule`` (the runner's fallback).
    if config.scheduler.upper() not in ("EDF-LIST", "EDF"):
        return False
    metric = config.metric
    if not isinstance(metric, str):
        return type(metric) in KERNEL_METRIC_TYPES
    return metric.upper().replace("_", "-") in (
        "PURE",
        "NORM",
        "ADAPT-G",
        "ADAPTG",
        "ADAPT-L",
        "ADAPTL",
    )


def _estimates(
    config: "TrialConfig", context: "TrialContext"
) -> tuple[list[float], str | None]:
    """*config*'s estimate array and the key it is memoized under.

    Strict locality reads the clustering's exact execution times (an
    anonymous array); relaxed locality reads the config's estimator.
    """
    cw = context.compiled
    if config.locality == "strict":
        exact = context.strict_assignment()[1]
        return [exact[tid] for tid in cw.ids], None
    est_obj = get_estimator(config.estimator)
    est = cw.estimates(est_obj, lambda: context.estimates_for(est_obj))
    return est, est_obj.name


def kernel_assignment(
    config: "TrialConfig",
    context: "TrialContext",
    metric: "CriticalPathMetric",
) -> tuple[list[float], KernelAssignment]:
    """*config*'s estimates and kernel-sliced windows on *context*.

    *metric* is *config*'s resolved metric, one of
    :data:`~repro.kernel.metrics.KERNEL_METRIC_TYPES`.  The slicing
    comes from the context's content memo
    (:meth:`~repro.experiments.context.TrialContext.sliced`), so every
    config whose sharing rule and weights coincide with an earlier
    one's — whatever its metric, estimator or scheduler — reuses that
    run.
    """
    est, est_key = _estimates(config, context)
    weights = kernel_weights(context.compiled, metric, est, est_key=est_key)
    return est, context.sliced(metric, weights)


def run_trial_kernel(
    config: "TrialConfig", context: "TrialContext", use_vec: bool = False
) -> "TrialOutcome":
    """One generate→slice→schedule trial on the compiled fast path.

    Produces the exact :class:`TrialOutcome` of the reference
    :func:`repro.experiments.runner.run_trial` for every supported
    config (see :func:`kernel_supported`); callers must gate on that
    predicate.  ``use_vec=True`` routes the weight stage through
    :mod:`repro.kernel.vec` (same floats, array ops); callers should
    additionally gate on :func:`repro.kernel.vec.vec_available`.  The
    slicing and the schedule come from *context*'s content memo, so
    each distinct computation runs once per workload; the vec tier
    keeps its own sliced assignments (tier ``"vec"`` of
    :meth:`~repro.experiments.context.TrialContext.assignment`).
    """
    from ..experiments.spec import TrialOutcome

    cw = context.compiled
    metric = get_metric(config.metric, config.adaptive)
    if use_vec:
        from .vec import vec_weights

        def vec_slice():
            est, est_key = _estimates(config, context)
            weights = vec_weights(cw, metric, est, est_key=est_key)
            return est, kernel_slice(cw, metric, weights)

        est, ka = context.assignment(config, "vec", vec_slice)
    else:
        est, ka = kernel_assignment(config, context, metric)

    ks = context.scheduled(
        ka,
        config.workload.bus_delay_per_item if config.contention_bus else None,
        config.measure_lateness,
    )

    if config.measure_lateness or ks.feasible:
        max_lateness = ks.max_lateness()
    else:
        max_lateness = float("nan")  # fail-fast schedules are partial
    return TrialOutcome(
        success=ks.feasible,
        degenerate=ka.degenerate,
        n_tasks=cw.n,
        min_laxity=ka.min_laxity(est),
        makespan=ks.makespan,
        max_lateness=max_lateness,
        failed_task=ks.failed_task,
    )


def run_trial_vec(
    config: "TrialConfig", context: "TrialContext"
) -> "TrialOutcome":
    """One trial through the vectorized tier (NumPy weight stage over
    the compiled slicing/EDF pipeline).

    Bit-identical to :func:`run_trial_kernel` and the reference for
    every supported config; callers gate on :func:`kernel_supported`
    and :func:`repro.kernel.vec.vec_available` (when NumPy is absent
    the dispatcher must fall through to the pure-Python kernel).
    """
    return run_trial_kernel(config, context, use_vec=True)
