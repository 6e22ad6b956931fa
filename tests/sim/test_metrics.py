"""Tests for probes, series and statistics helpers."""

import pytest

from repro.net.clock import SimClock
from repro.sim import percentile
from repro.sim.metrics import Probe, Series, cdf_points, goodput_mbps


class TestSeries:
    def test_basic_stats(self):
        s = Series("x")
        for t, v in [(0, 1.0), (100, 2.0), (200, 3.0)]:
            s.add(t, v)
        assert s.values() == [1.0, 2.0, 3.0]
        assert s.last() == 3.0
        assert s.mean() == 2.0

    def test_windowed_queries(self):
        s = Series("x")
        for t in range(0, 1000, 100):
            s.add(t, float(t))
        assert s.between(200, 400) == [200.0, 300.0, 400.0]
        assert s.mean_between(200, 400) == 300.0
        assert s.mean_between(5000, 6000) == 0.0

    def test_empty(self):
        s = Series("x")
        assert s.last() is None
        assert s.mean() == 0.0


class TestProbe:
    def test_samples_on_period(self):
        clock = SimClock()
        probe = Probe(clock, period_ttis=10)
        counter = {"n": 0}

        def sample(tti):
            counter["n"] += 1
            return tti

        series = probe.watch("tti", sample)
        clock.run(35)
        assert [t for t, _ in series.samples] == [0, 10, 20, 30]
        assert counter["n"] == 4

    def test_start_offset(self):
        clock = SimClock()
        probe = Probe(clock, period_ttis=10, start_tti=20)
        series = probe.watch("x", lambda t: 1.0)
        clock.run(40)
        assert [t for t, _ in series.samples] == [20, 30]

    def test_duplicate_watch_rejected(self):
        probe = Probe(SimClock())
        probe.watch("x", lambda t: 0.0)
        with pytest.raises(ValueError):
            probe.watch("x", lambda t: 0.0)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            Probe(SimClock(), period_ttis=0)


class TestHelpers:
    def test_goodput(self):
        assert goodput_mbps(125_000, 1000) == pytest.approx(1.0)
        assert goodput_mbps(100, 0) == 0.0

    def test_cdf(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
        assert cdf_points([]) == []

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 50) == 50
        assert percentile(values, 100) == 100
        assert percentile([5.0], 75) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)
