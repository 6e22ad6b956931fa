"""Tests for control-channel fault injection: loss, jitter, partitions."""

import pytest

from repro.net.link import DuplexChannel, EmulatedLink
from repro.net.transport import ControlConnection


def drain(link, now):
    return link.deliver_due(now)


class TestLoss:
    def test_full_loss_drops_everything(self):
        link = EmulatedLink()
        link.set_loss(1.0)
        for t in range(10):
            assert link.send(f"m{t}", 100, now=t) == -1
        assert link.dropped_messages == 10
        assert link.dropped_bytes == 1000
        assert drain(link, 100) == []

    def test_dropped_messages_not_in_byte_accounting(self):
        link = EmulatedLink()
        link.set_loss(1.0)
        link.send("x", 100, now=0)
        assert link.total_bytes == 0
        assert link.total_messages == 0

    def test_partial_loss_is_roughly_proportional(self):
        link = EmulatedLink(seed=7)
        link.set_loss(0.3)
        n = 2000
        delivered = sum(1 for t in range(n)
                        if link.send("m", 10, now=t) >= 0)
        assert 0.6 * n < delivered < 0.8 * n

    def test_loss_validation(self):
        link = EmulatedLink()
        with pytest.raises(ValueError):
            link.set_loss(1.5)
        with pytest.raises(ValueError):
            link.set_loss(-0.1)


class TestJitter:
    def test_jitter_delays_but_preserves_fifo(self):
        link = EmulatedLink(one_way_latency_ms=5.0, seed=3)
        link.set_jitter_ms(20.0)
        deliveries = [link.send(i, 10, now=0) for i in range(50)]
        # Every delivery at or after the base latency, FIFO throughout.
        assert all(d >= 5 for d in deliveries)
        assert deliveries == sorted(deliveries)
        received = []
        for t in range(0, 40):
            received.extend(drain(link, t))
        assert received == list(range(50))

    def test_jitter_actually_spreads_deliveries(self):
        link = EmulatedLink(seed=5)
        link.set_jitter_ms(30.0)
        deliveries = {link.send(i, 10, now=0) for i in range(50)}
        assert len(deliveries) > 1

    def test_jitter_validation(self):
        link = EmulatedLink()
        with pytest.raises(ValueError):
            link.set_jitter_ms(-1.0)


class TestPartition:
    def test_down_link_drops_offered_traffic(self):
        link = EmulatedLink()
        link.set_up(False)
        assert link.send("x", 10, now=0) == -1
        assert link.dropped_messages == 1

    def test_going_down_drops_in_flight(self):
        link = EmulatedLink(one_way_latency_ms=10.0)
        link.send("a", 10, now=0)
        link.send("b", 20, now=1)
        assert link.in_flight() == 2
        link.set_up(False)
        assert link.in_flight() == 0
        assert link.dropped_messages == 2
        assert link.dropped_bytes == 30
        assert drain(link, 100) == []

    def test_scripted_fail_and_heal(self):
        link = EmulatedLink()
        link.fail_at(10)
        link.heal_at(20)
        assert link.send("before", 10, now=5) == 5
        assert link.send("during", 10, now=12) == -1
        assert link.send("after", 10, now=25) == 25
        assert drain(link, 30) == ["before", "after"]

    def test_heal_applies_on_delivery_too(self):
        """A quiet receiver still advances the scripted event timeline."""
        link = EmulatedLink()
        link.fail_at(5)
        drain(link, 6)
        assert not link.up

    def test_duplex_partition_hits_both_directions(self):
        chan = DuplexChannel(rtt_ms=0.0)
        chan.partition(10, 20)
        assert chan.uplink.send("up", 10, now=12) == -1
        assert chan.downlink.send("down", 10, now=12) == -1
        assert sum(link.dropped_messages for link in chan.links) == 2
        assert chan.uplink.send("up2", 10, now=20) == 20

    def test_empty_partition_window_rejected(self):
        chan = DuplexChannel()
        with pytest.raises(ValueError):
            chan.partition(20, 20)
        with pytest.raises(ValueError):
            chan.partition(20, 10)

    def test_overlapping_partition_windows_rejected(self):
        # Overlap would silently truncate the later window: the first
        # window's heal event brings the link up mid-partition.
        chan = DuplexChannel()
        chan.partition(10, 20)
        with pytest.raises(ValueError, match="overlaps"):
            chan.partition(15, 25)
        chan.partition(30, 40)  # disjoint windows stay legal


class TestConnectionFaults:
    def test_connection_partition_and_counters(self):
        conn = ControlConnection(rtt_ms=2.0)
        from repro.core.protocol.messages import EchoRequest, Header
        conn.channel.partition(5, 10)
        conn.agent_side.send(EchoRequest(header=Header(xid=1)), now=6)
        assert conn.master_side.receive(now=50) == []
        assert sum(link.dropped_messages for link in conn.channel.links) == 1
        conn.agent_side.send(EchoRequest(header=Header(xid=2)), now=11)
        got = conn.master_side.receive(now=50)
        assert len(got) == 1 and got[0].header.xid == 2

    def test_connection_loss_and_jitter_passthrough(self):
        conn = ControlConnection()
        conn.channel.set_loss(1.0)
        from repro.core.protocol.messages import EchoRequest, Header
        conn.agent_side.send(EchoRequest(header=Header(xid=1)), now=0)
        assert sum(link.dropped_messages for link in conn.channel.links) == 1
        conn.channel.set_loss(0.0)
        conn.channel.set_jitter_ms(5.0)  # validates and installs on both links
        conn.agent_side.send(EchoRequest(header=Header(xid=2)), now=10)
        assert conn.master_side.receive(now=30)
