import json

import pytest

from bench.compare import compare, load_runs, verdict


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        # Wins 10/10 and the medians differ by more than A's IQR.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], "higher", "improved"),
        # Within the bound either way.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [99, 100, 98, 101, 100, 99, 100, 98, 101, 99], "higher", "unchanged"),
        # 15% slower with a tight parent spread.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [85, 86, 84, 85, 86, 84, 85, 85, 86, 84], "higher", "regressed"),
        # Lower-is-better metrics flip the direction.
        ([10.0, 10.1, 9.9, 10.0, 10.2], [12.0, 12.1, 11.9, 12.0, 12.2], "lower", "regressed"),
        ([10.0, 10.1, 9.9, 10.0, 10.2], [8.0, 8.1, 7.9, 8.0, 8.2], "lower", "improved"),
        # The parent's own spread is wider than the bound: unresolved.
        ([60, 140, 80, 120, 100, 70, 130], [95, 96, 94, 95, 97, 96, 95], "higher", "unresolved"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert verdict(a, b, better, 0.10)[0] == expected


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    a = [60, 140, 80, 120, 100]
    assert verdict(a, [200, 210, 205, 220, 215], "higher", 0.10) == ("improved", 5, 5)
    # Every change run reads worse than every parent run: a regression
    # despite the parent's spread.
    assert verdict(a, [40, 45, 50, 42, 48], "higher", 0.10)[0] == "regressed"


def test_error_rate_may_not_increase(tmp_path):
    def write(directory, rates, tps):
        directory.mkdir()
        for i, (rate, t) in enumerate(zip(rates, tps)):
            doc = {"format": "bench-pass/1", "workloads": {
                "figures": {"metrics": {"error_rate": rate, "trials_per_s": t,
                                        "p99_ms": None}}}}
            (directory / f"pass-{i}.json").write_text(json.dumps(doc))

    write(tmp_path / "a", [0.0] * 5, [100, 101, 99, 100, 100])
    write(tmp_path / "b", [0.0, 0.0, 0.01, 0.0, 0.0], [100, 100, 101, 99, 100])
    rows = compare(load_runs(tmp_path / "a"), load_runs(tmp_path / "b"),
                   {"throughput_per_s": 0.1})
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["trials_per_s"]["verdict"] == "unchanged"
    assert by_metric["trials_per_s"]["a"][0] == 100
    assert "p99_ms" not in by_metric  # not measured: no row
    # The median error rate is still 0, so it is unchanged; one more
    # failing run moves the median and regresses.
    assert by_metric["error_rate"]["verdict"] == "unchanged"
    write(tmp_path / "c", [0.0, 0.01, 0.01, 0.0, 0.01], [100] * 5)
    rows = compare(load_runs(tmp_path / "a"), load_runs(tmp_path / "c"),
                   {"throughput_per_s": 0.1})
    assert {r["metric"]: r["verdict"] for r in rows}["error_rate"] == "regressed"
