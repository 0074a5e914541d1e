"""Array-native metric weight evaluation (kernel fast path of §4.5).

Produces, for each of the paper's four metrics, the per-task weight
array the slicing DP accumulates — ``c̄_i`` for PURE/NORM, the virtual
execution time ``ĉ_i`` for ADAPT-G/ADAPT-L — as a flat immutable
``tuple[float, ...]`` in task-insertion order.

Bit-identity notes (each mirrors the reference in
:mod:`repro.core.metrics` / :mod:`repro.graph.algorithms` operation for
operation):

* the ``c_thres`` mean and the ADAPT-G total workload are summed in
  graph **insertion order** (the estimate array's order), exactly like
  ``AdaptiveParams.threshold`` and ``average_parallelism``;
* static levels accumulate ``cost + max(succ levels, default 0.0)``
  over the reversed topological order, like ``static_levels``;
* the surplus factors use the very same expressions
  (``1.0 + k_g * xi / m``, ``1.0 + k_l * |Ψ_i| / m``) and the same
  ``c >= c_thres`` inflation guard, so every weight is the same float.
"""

from __future__ import annotations

from ..core.metrics import (
    AdaptGMetric,
    AdaptLMetric,
    CriticalPathMetric,
    NormMetric,
    PureMetric,
)
from ..errors import GraphError, MetricError
from .compiled import CompiledWorkload

__all__ = ["kernel_weights", "KERNEL_METRIC_TYPES"]

#: Exact metric types the kernel understands.  Subclasses are excluded
#: on purpose: they may override the sharing rule, and the kernel would
#: silently compute the base-class behaviour instead.
KERNEL_METRIC_TYPES = (PureMetric, NormMetric, AdaptGMetric, AdaptLMetric)


def _threshold(cw: CompiledWorkload, params, est: list[float]) -> float:
    if params.c_thres is not None:
        return params.c_thres
    if not est:
        raise MetricError("cannot derive c_thres from an empty task set")
    mean = sum(est) / len(est)
    return params.c_thres_factor * mean


def _average_parallelism(cw: CompiledWorkload, est: list[float]) -> float:
    """``xi`` (eq. 7) over the weight array — see ``average_parallelism``."""
    n = cw.n
    if n == 0:
        raise GraphError("average parallelism of an empty graph is undefined")
    total = sum(est)
    topo, succ_lists = cw.topo, cw.succ_lists
    levels = [0.0] * n
    for pos in range(n - 1, -1, -1):
        i = topo[pos]
        tail = max((levels[j] for j in succ_lists[i]), default=0.0)
        levels[i] = est[i] + tail
    longest = max(levels)
    if longest <= 0.0:
        raise GraphError("longest path length must be positive")
    return total / longest


def kernel_weights(
    cw: CompiledWorkload,
    metric: CriticalPathMetric,
    est: list[float],
    est_key: str | None = None,
) -> tuple[float, ...]:
    """The metric's weight array over *cw*, in insertion order.

    *est* is the estimate array (``cw.estimates_list(...)`` output).
    When *est_key* names the estimator the array came from, the result
    is memoized on the workload — one weight array per (metric, params,
    estimator) serves every series of a trial.  Anonymous estimate
    arrays (``est_key=None``) are computed fresh each call.  Only the
    exact types in :data:`KERNEL_METRIC_TYPES` are accepted;
    dispatchers gate on :func:`repro.kernel.trial.kernel_supported`.

    The returned array is an immutable tuple, never the caller's *est*
    object: PURE/NORM weights *equal* the estimates, but handing back
    (and memoizing) the estimate list itself would alias the weight
    cache to the estimate cache — one downstream mutation would then
    corrupt both for every later series of the trial.  PURE and NORM
    still share one tuple per estimator, but that tuple is owned by the
    weight cache alone.
    """
    key = None
    cache = cw.weights_cache()
    if est_key is not None:
        name = metric.name
        if isinstance(metric, (AdaptGMetric, AdaptLMetric)):
            p = metric.params
            key = (name, p.k_g, p.k_l, p.c_thres, p.c_thres_factor, est_key)
        else:
            key = (name, est_key)
        cached = cache.get(key)
        if cached is not None:
            return cached

    if isinstance(metric, (PureMetric, NormMetric)):
        # One shared immutable copy of the estimates per estimator:
        # cached under a key no metric name can collide with, so PURE
        # and NORM resolve to the same tuple without aliasing *est*.
        if est_key is not None:
            est_copy_key = ("__est_copy__", est_key)
            weights = cache.get(est_copy_key)
            if weights is None:
                weights = tuple(est)
                cache[est_copy_key] = weights
        else:
            weights = tuple(est)
    elif isinstance(metric, AdaptGMetric):
        m = cw.m
        if m < 1:
            raise MetricError("m must be at least 1")
        xi = _average_parallelism(cw, est)
        c_thres = _threshold(cw, metric.params, est)
        surplus = 1.0 + metric.params.k_g * xi / m
        weights = tuple(
            c * surplus if c >= c_thres else c for c in est
        )
    elif isinstance(metric, AdaptLMetric):
        m = cw.m
        if m < 1:
            raise MetricError("m must be at least 1")
        sizes = cw.parallel_set_sizes()
        c_thres = _threshold(cw, metric.params, est)
        k_l = metric.params.k_l
        weights = tuple(
            c * (1.0 + k_l * sizes[i] / m) if c >= c_thres else c
            for i, c in enumerate(est)
        )
    else:  # pragma: no cover - dispatch gates on kernel_supported
        raise MetricError(
            f"kernel has no fast path for metric {type(metric).__name__}"
        )
    if key is not None:
        cache[key] = weights
    return weights
