from bench.loadgen import beyond, highest_reportable, percentile, reportable


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert beyond(1000, 99) == 10
    assert reportable(1000, 99)
    assert beyond(999, 99) == 9
    assert not reportable(999, 99)
    assert reportable(200, 95) and not reportable(199, 95)


def test_highest_reportable_percentile():
    assert highest_reportable(10_000) == 99.9
    assert highest_reportable(1600) == 99.0
    assert highest_reportable(493) == 95.0
    assert highest_reportable(40) == 75.0
    assert highest_reportable(15) is None
