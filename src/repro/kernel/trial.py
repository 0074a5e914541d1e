"""Kernel trial execution: dispatch and support predicate.

The kernel replaces the string-keyed reference pipeline for the
configurations the Monte Carlo experiments actually sweep — relaxed
locality, the plain EDF list scheduler, the paper's four metrics.
Everything else (strict locality's clustering pre-assignment, the
SL/FIFO/LLF scheduler variants, custom metric objects) falls back to
the reference implementation, which remains the oracle the kernel is
tested bit-identical against.  ``engine="paired-ref"`` in
:func:`repro.experiments.runner.run_experiment` (``use_kernel=False``
per trial) forces the reference path for one run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.estimation import WCET_AVG, WCET_MAX, WCET_MIN, get_estimator
from ..core.metrics import get_metric
from ..system.interconnect import ContentionBus
from .metrics import KERNEL_METRIC_TYPES, kernel_weights
from .edf import kernel_schedule_edf
from .slicing import kernel_slice

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.context import TrialContext
    from ..experiments.spec import TrialConfig, TrialOutcome

__all__ = [
    "kernel_supported",
    "run_trial_kernel",
    "run_trial_vec",
]


def kernel_supported(config: "TrialConfig") -> bool:
    """Whether *config* lies inside the kernel's bit-identical envelope."""
    if config.locality != "relaxed":
        return False
    # Exactly the registry names resolving to the plain EDF scheduler
    # (subclasses substitute other priorities via a proxy assignment,
    # which the kernel heap cannot reproduce).
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
    estimates and the sliced assignment are memoized on *context*
    (:meth:`~repro.experiments.context.TrialContext.assignment`), so
    configs that differ only in bus model or lateness mode slice once.
    """
    from ..experiments.spec import TrialOutcome

    cw = context.compiled

    def slice_windows():
        metric = get_metric(config.metric, config.adaptive)
        est_obj = get_estimator(config.estimator)
        est_key = est_obj.name
        if (
            est_obj is WCET_AVG or est_obj is WCET_MAX or est_obj is WCET_MIN
        ):
            # The stateless per-task estimators combine the
            # platform-valid WCET rows directly — no string-keyed
            # estimate map needed.
            est = cw.estimates_from_vals(est_key, est_obj.combine)
        else:
            # Graph-aware or custom strategies go through the reference
            # map.
            est_map = context.estimates_for(config.estimator)
            est = cw.estimates_list(est_key, est_map)
        if use_vec:
            from .vec import vec_weights

            weights = vec_weights(cw, metric, est, est_key=est_key)
        else:
            weights = kernel_weights(cw, metric, est, est_key=est_key)
        return est, kernel_slice(cw, metric, weights)

    est, ka = context.assignment(
        config, "vec" if use_vec else "kernel", slice_windows
    )

    comm = (
        ContentionBus(config.workload.bus_delay_per_item)
        if config.contention_bus
        else None
    )
    ks = kernel_schedule_edf(
        cw,
        ka.win_a,
        ka.win_d,
        comm=comm,
        continue_on_miss=config.measure_lateness,
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
