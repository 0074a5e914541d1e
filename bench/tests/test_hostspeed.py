import os
import statistics
import time

import pytest

from bench.hostspeed import MIN_WINDOW_S, NOMINAL_CHUNK_S, Probe


def test_probe_samples_every_cpu_and_corrects_for_stolen_time(tmp_path):
    probe = Probe(tmp_path / "probe.txt")
    start = time.perf_counter()
    time.sleep(1.5)
    end = time.perf_counter()
    probe.stop()
    probe.stop()  # a second stop loads nothing twice
    assert set(probe.samples) == os.sched_getaffinity(0)

    per_cpu = []
    for samples in probe.samples.values():
        assert samples == sorted(samples)
        window = [s for s in samples if start <= s[0] <= end]
        speed = statistics.median(s[1] for s in window) / NOMINAL_CHUNK_S
        stolen = (window[-1][2] - window[0][2]) / (window[-1][3] - window[0][3])
        assert 0.0 <= stolen < 1.0
        per_cpu.append(speed / (1.0 - stolen))
    slowness = probe.slowness(start, end)
    assert slowness == pytest.approx(statistics.fmean(per_cpu))
    assert probe.scaled(start, end) == pytest.approx((end - start) / slowness)

    # A window shorter than MIN_WINDOW_S is widened around its middle.
    middle = (start + end) / 2.0
    assert probe.slowness(middle, middle) == probe.slowness(
        middle - MIN_WINDOW_S / 2.0, middle + MIN_WINDOW_S / 2.0
    )
    with pytest.raises(RuntimeError):
        probe.slowness(end + 10.0, end + 20.0)
