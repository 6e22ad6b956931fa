"""Tests for the benchmarks' statistics helpers."""

import pytest

from repro.obs.registry import percentile
from repro.sim.metrics import cdf_points, goodput_mbps


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
