"""Tests for the emulated control-channel links."""

import pytest

from repro.net.link import DuplexChannel, EmulatedLink
from repro.sim.metrics import goodput_mbps


class TestEmulatedLink:
    def test_zero_latency_delivers_same_tti(self):
        link = EmulatedLink()
        link.send("a", 10, now=5)
        assert link.deliver_due(5) == ["a"]

    def test_latency_delays_delivery(self):
        link = EmulatedLink(one_way_latency_ms=3)
        link.send("a", 10, now=0)
        assert link.deliver_due(2) == []
        assert link.deliver_due(3) == ["a"]

    def test_fifo_order_preserved(self):
        link = EmulatedLink(one_way_latency_ms=1)
        link.send("a", 1, now=0)
        link.send("b", 1, now=0)
        link.send("c", 1, now=1)
        assert link.deliver_due(10) == ["a", "b", "c"]

    def test_runtime_latency_change(self):
        link = EmulatedLink(one_way_latency_ms=0)
        link.send("fast", 1, now=0)
        link.set_latency_ms(10)
        link.send("slow", 1, now=0)
        assert link.deliver_due(0) == ["fast"]
        assert link.deliver_due(9) == []
        assert link.deliver_due(10) == ["slow"]

    def test_fractional_latency_rounds_up(self):
        link = EmulatedLink(one_way_latency_ms=2.5)
        assert link.one_way_latency_ttis == 3

    def test_in_flight(self):
        link = EmulatedLink(one_way_latency_ms=5)
        link.send("a", 1, now=0)
        link.send("b", 1, now=0)
        assert link.in_flight() == 2
        link.deliver_due(5)
        assert link.in_flight() == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            EmulatedLink(one_way_latency_ms=-1)
        with pytest.raises(ValueError):
            EmulatedLink().send("x", -1, now=0)


class TestAccounting:
    def test_category_byte_counters(self):
        link = EmulatedLink()
        link.send("a", 100, now=0, category="stats")
        link.send("b", 50, now=0, category="stats")
        link.send("c", 10, now=0, category="sync")
        assert link.counters["stats"].bytes == 150
        assert link.counters["sync"].bytes == 10
        assert "other" not in link.counters
        assert link.total_bytes == 160
        assert link.total_messages == 3

    def test_mbps_conversion(self):
        link = EmulatedLink()
        # 125 bytes per TTI for 1000 TTIs = 1 Mb/s.
        for t in range(1000):
            link.send("x", 125, now=t, category="stats")
        stats = link.counters["stats"]
        assert stats.messages == 1000
        assert goodput_mbps(stats.bytes, 1000) == pytest.approx(1.0)
        assert goodput_mbps(link.total_bytes, 1000) == pytest.approx(1.0)


class TestDuplexChannel:
    def test_symmetric_rtt_split(self):
        chan = DuplexChannel(rtt_ms=20)
        assert chan.uplink.one_way_latency_ttis == 10
        assert chan.downlink.one_way_latency_ttis == 10
        assert (chan.uplink.one_way_latency_ttis
                + chan.downlink.one_way_latency_ttis) == 20

    def test_set_rtt(self):
        chan = DuplexChannel()
        chan.set_rtt_ms(60)
        assert (chan.uplink.one_way_latency_ttis
                + chan.downlink.one_way_latency_ttis) == 60
