"""Unit tests for the in-process Prometheus-style metrics."""

import math

import pytest

from repro.service import Counter, LatencySummary, ServiceMetrics
from repro.service.metrics import render_prometheus


class TestCounter:
    def test_unlabelled_increment(self):
        c = Counter("x_total", "help")
        c.inc()
        c.inc(2.0)
        assert c.value() == 3.0

    def test_labelled_children_are_independent(self):
        c = Counter("x_total", "help")
        c.inc(endpoint="assign", status="200")
        c.inc(endpoint="assign", status="400")
        c.inc(endpoint="assign", status="200")
        assert c.value(endpoint="assign", status="200") == 2.0
        assert c.value(endpoint="assign", status="400") == 1.0
        assert c.total() == 3.0

    def test_label_order_is_irrelevant(self):
        c = Counter("x_total", "help")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1.0

    def test_negative_increment_rejected(self):
        c = Counter("x_total", "help")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_render_format(self):
        c = Counter("x_total", "Things counted.")
        c.inc(endpoint="assign", status="200")
        lines = c.render()
        assert lines[0] == "# HELP x_total Things counted."
        assert lines[1] == "# TYPE x_total counter"
        assert 'x_total{endpoint="assign",status="200"} 1' in lines

    def test_render_empty_counter_emits_zero(self):
        assert "x_total 0" in Counter("x_total", "h").render()


class TestLatencySummary:
    def test_quantiles_on_known_data(self):
        s = LatencySummary("lat", "h", window=100)
        for v in range(1, 101):  # 0.01 .. 1.00
            s.observe(v / 100.0)
        assert s.quantile(0.0) == pytest.approx(0.01)
        assert s.quantile(0.5) == pytest.approx(0.505)
        assert s.quantile(1.0) == pytest.approx(1.0)
        assert s.count == 100

    def test_window_slides(self):
        s = LatencySummary("lat", "h", window=4)
        for v in (10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0):
            s.observe(v)
        assert s.quantile(1.0) == 1.0  # the 10s have left the window
        assert s.count == 7  # cumulative count keeps history

    def test_empty_summary_is_nan(self):
        assert math.isnan(LatencySummary("lat", "h").quantile(0.5))

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            LatencySummary("lat", "h").quantile(1.5)

    def test_render_has_quantiles_count_and_sum(self):
        s = LatencySummary("lat_seconds", "h")
        s.observe(0.25)
        text = "\n".join(s.render())
        assert 'lat_seconds{quantile="0.5"} 0.25' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.25" in text


class TestServiceMetrics:
    def test_hit_rate(self):
        m = ServiceMetrics()
        assert m.cache_hit_rate() == 0.0
        m.cache_hits.inc(3)
        m.cache_misses.inc()
        assert m.cache_hit_rate() == pytest.approx(0.75)

    def test_render_exposes_all_families(self):
        m = ServiceMetrics()
        m.requests.inc(endpoint="assign", status="200")
        m.assign_latency.observe(0.004)
        text = render_prometheus(m)
        for family in (
            "repro_requests_total",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_hit_rate",
            "repro_assign_latency_seconds",
            "repro_admissions_total",
        ):
            assert family in text
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in text
        assert text.endswith("\n")
