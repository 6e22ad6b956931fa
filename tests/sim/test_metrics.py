"""Tests for the benchmarks' statistics helpers."""

import pytest

from repro.obs.registry import percentile
from repro.sim.metrics import goodput_mbps


class TestHelpers:
    def test_goodput(self):
        assert goodput_mbps(125_000, 1000) == pytest.approx(1.0)
        assert goodput_mbps(100, 0) == 0.0

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
