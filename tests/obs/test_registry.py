"""Metrics registry semantics: instruments, buckets, the off state."""

import pytest

from repro import obs
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("a.b")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_high_water_mark(self):
        g = Gauge("a.b")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.max_value == 3.0
        g.add(2.0)
        assert g.value == 3.0
        assert g.updates == 3


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        # A value exactly on an edge lands in that bucket (le semantics).
        h.observe(1.0)
        h.observe(2.0)
        h.observe(1.5)
        h.observe(100.0)  # overflow bucket
        assert h.bucket_counts == [1, 2, 0, 1]
        cumulative = h.cumulative_buckets()
        assert cumulative == [(1.0, 1), (2.0, 3), (5.0, 3),
                              (float("inf"), 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)

    def test_percentiles_over_window(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.p50 == pytest.approx(50.5)
        assert h.p99 == pytest.approx(99.01)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").p95 == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_default_buckets_cover_ms_scale(self):
        assert DEFAULT_BUCKETS[0] < 0.01
        assert DEFAULT_BUCKETS[-1] >= 1000.0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("x.y") is r.counter("x.y")
        assert len(r) == 1

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x.y")
        with pytest.raises(TypeError):
            r.gauge("x.y")

    def test_invalid_name_rejected(self):
        r = MetricsRegistry()
        for bad in ("Caps.name", "1leading", "trailing.", "sp ace"):
            with pytest.raises(ValueError):
                r.counter(bad)

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").observe(0.3)
        snap = r.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 2}
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"][-1][0] == float("inf")


class TestNullBackend:
    """While off, the backend is null: ``obs.live is None``."""

    def test_disabled_by_default(self):
        assert obs.live is None

    def test_enable_disable_roundtrip(self):
        ob = obs.enable()
        assert obs.live is ob
        obs.live.registry.counter("x").inc()
        assert obs.live.registry.counter("x").value == 1
        obs.disable()
        assert obs.live is None

    def test_enabled_scope_restores_previous(self):
        with obs.enabled_scope() as ob:
            assert obs.live is ob
        assert obs.live is None
        outer = obs.enable(trace=False)
        with obs.enabled_scope() as inner:
            assert obs.live is inner is not outer
        assert obs.live is outer


class TestPercentileHelper:
    def test_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
