"""Regression: the weight memo must never alias the caller's estimates.

The bug: for PURE/NORM the weights *equal* the estimates, and
``kernel_weights`` used to return (and memoize) the caller's ``est``
list itself — the weight cache and the estimate cache were one mutable
object, so a downstream mutation corrupted both for every later series
of the trial.  The fix returns an immutable tuple owned by the weight
cache alone; these tests pin that contract for every metric branch.
"""

import pytest

from repro.core.metrics import METRIC_NAMES, get_metric
from repro.experiments.context import TrialContext
from repro.kernel.metrics import kernel_weights
from repro.workload import WorkloadParams


@pytest.fixture
def cw():
    context = TrialContext.from_seed(WorkloadParams(m=3), 4242)
    return context.compiled


def test_returned_weights_never_alias_the_estimates(cw):
    est = cw.estimates_from_vals("WCET-AVG", lambda vals: sum(vals) / len(vals))
    for name in METRIC_NAMES:
        metric = get_metric(name, None)
        weights = kernel_weights(cw, metric, est, "WCET-AVG")
        assert weights is not est, name
        assert isinstance(weights, tuple), name  # immutable for all branches


def test_mutating_the_estimates_leaves_cached_weights_untouched(cw):
    est = cw.estimates_from_vals("WCET-AVG", lambda vals: sum(vals) / len(vals))
    metric = get_metric("PURE", None)
    weights = kernel_weights(cw, metric, est, "WCET-AVG")
    snapshot = tuple(weights)
    # The downstream mutation that used to corrupt both caches: the
    # caller scribbles over its estimate list after the weights were
    # memoized.
    for i in range(len(est)):
        est[i] = -1e9
    again = kernel_weights(cw, metric, [0.0] * cw.n, "WCET-AVG")
    assert again == snapshot  # memo hit: cached copy, not the est list
    fresh = cw.estimates_from_vals("WCET-AVG", lambda v: sum(v) / len(v))
    assert fresh[0] == -1e9  # the estimate cache saw the mutation...
    assert weights == snapshot  # ...but the weight tuple is untouched


def test_pure_and_norm_share_one_copy_without_aliasing(cw):
    """PURE and NORM still share one tuple per estimator — but that
    tuple is the cache's own copy, not the estimate list."""
    est = cw.estimates_from_vals("WCET-AVG", lambda vals: sum(vals) / len(vals))
    pure = kernel_weights(cw, get_metric("PURE", None), est, "WCET-AVG")
    norm = kernel_weights(cw, get_metric("NORM", None), est, "WCET-AVG")
    assert pure is norm
    assert pure is not est
