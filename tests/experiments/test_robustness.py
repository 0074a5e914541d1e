"""Unit tests for the rank-robustness analysis."""

import math

import pytest

from repro.analysis import BinomialEstimate
from repro.errors import ExperimentError
from repro.experiments import (
    RobustnessResult,
    TrialConfig,
    robustness_table,
    run_robustness,
)
from repro.experiments.runner import CellResult
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=2, n_tasks_range=(10, 14), depth_range=(4, 6))


def builder(conf, metric):
    return TrialConfig(
        workload=FAST.with_overrides(**conf), metric=metric
    )


def manual(metrics, configs, table):
    """Build a RobustnessResult from a {(ci, metric): successes} table."""
    res = RobustnessResult(metrics=list(metrics), configurations=list(configs))
    res.trials_per_cell = 10
    for key, succ in table.items():
        res.ratios[key] = CellResult(BinomialEstimate(succ, 10))
    for ci in range(len(configs)):
        values = [res.ratio(ci, m) for m in metrics]
        if max(values) < 0.02 or min(values) > 0.98:
            continue
        res.informative.append(ci)
    return res


class TestRankStatistics:
    def test_ranks_and_regret(self):
        res = manual(
            ["A", "B"],
            [{}, {}],
            {(0, "A"): 8, (0, "B"): 4, (1, "A"): 3, (1, "B"): 6},
        )
        assert res.ranks("A") == [1, 2]
        assert res.ranks("B") == [2, 1]
        assert res.mean_rank("A") == 1.5
        assert res.worst_rank("A") == 2
        assert res.first_place_share("A") == 0.5
        assert res.max_regret("A") == pytest.approx(0.3)

    def test_ties_share_the_better_rank(self):
        res = manual(["A", "B"], [{}], {(0, "A"): 5, (0, "B"): 5})
        assert res.ranks("A") == [1]
        assert res.ranks("B") == [1]

    def test_saturated_configs_excluded(self):
        res = manual(
            ["A", "B"],
            [{}, {}],
            {(0, "A"): 10, (0, "B"): 10, (1, "A"): 7, (1, "B"): 3},
        )
        assert res.informative == [1]
        assert res.ranks("A") == [1]

    def test_all_failed_configs_excluded(self):
        res = manual(["A", "B"], [{}], {(0, "A"): 0, (0, "B"): 0})
        assert res.informative == []
        assert math.isnan(res.mean_rank("A"))


class TestRunRobustness:
    def test_end_to_end(self):
        configs = [{"olr": 0.6}, {"olr": 0.8}]
        res = run_robustness(
            ["PURE", "ADAPT-L"],
            configs,
            builder,
            trials=6,
            seed=3,
            jobs=1,
        )
        assert len(res.ratios) == 4
        assert all(0 <= c.ratio <= 1 for c in res.ratios.values())
        table = robustness_table(res)
        assert "mean rank" in table and "PURE" in table

    def test_paired_seeds_across_metrics(self):
        # identical metric twice => identical counts per configuration
        res = run_robustness(
            ["PURE", "NORM"],
            [{"olr": 0.6, "etd": 0.0}],
            builder,
            trials=8,
            seed=5,
            jobs=1,
        )
        # at ETD=0 PURE and NORM coincide exactly (shared workloads)
        assert res.ratios[(0, "PURE")].estimate == res.ratios[
            (0, "NORM")
        ].estimate

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(metrics=[], configurations=[{}]),
            dict(metrics=["A", "A"], configurations=[{}]),
            dict(metrics=["A"], configurations=[]),
            dict(metrics=["A"], configurations=[{}], trials=0),
        ],
    )
    def test_validation(self, kwargs):
        kwargs.setdefault("trials", 1)
        with pytest.raises(ExperimentError):
            run_robustness(
                kwargs.pop("metrics"),
                kwargs.pop("configurations"),
                builder,
                **kwargs,
            )


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("jobs", 0, "jobs must be at least 1, got 0"),
        ("jobs", -1, "jobs must be at least 1, got -1"),
        ("chunk_size", 0, "chunk_size must be at least 1, got 0"),
    ],
)
def test_run_options_rejected_like_run_experiment(option, value, message):
    with pytest.raises(ExperimentError, match=message):
        run_robustness(["PURE"], [{}], builder, trials=1, **{option: value})
