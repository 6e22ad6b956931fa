"""Tests for protocol endpoints over emulated links."""

from repro.core.protocol.messages import (
    Category,
    EchoReply,
    EchoRequest,
    Header,
    StatsReply,
    UeStatsReport,
)
from repro.net.transport import ControlConnection


class TestControlConnection:
    def test_roundtrip_agent_to_master(self):
        conn = ControlConnection()
        msg = StatsReply(header=Header(agent_id=1, xid=9, tti=42),
                         ue_reports=[UeStatsReport(rnti=70, wb_cqi=12)])
        size = conn.agent_side.send(msg, now=0)
        assert size > 0
        received = conn.master_side.receive(now=0)
        assert len(received) == 1
        assert received[0] == msg

    def test_roundtrip_master_to_agent(self):
        conn = ControlConnection()
        conn.master_side.send(EchoRequest(header=Header(xid=1)), now=0)
        got = conn.agent_side.receive(now=0)
        assert isinstance(got[0], EchoRequest)

    def test_latency_applies_both_ways(self):
        conn = ControlConnection(rtt_ms=10)
        conn.agent_side.send(EchoReply(), now=0)
        assert conn.master_side.receive(now=4) == []
        assert len(conn.master_side.receive(now=5)) == 1

    def test_category_accounting_uses_message_category(self):
        conn = ControlConnection()
        conn.agent_side.send(StatsReply(), now=0)
        conn.agent_side.send(EchoReply(), now=0)
        counters = conn.channel.uplink.counters
        assert counters[Category.STATS].bytes > 0
        assert counters[Category.AGENT_MANAGEMENT].bytes > 0

    def test_message_counters(self):
        conn = ControlConnection()
        conn.agent_side.send(EchoReply(), now=0)
        conn.master_side.receive(now=0)
        assert conn.agent_side.sent_messages == 1
        assert conn.master_side.received_messages == 1

    def test_set_rtt_runtime(self):
        conn = ControlConnection(rtt_ms=0)
        conn.channel.set_rtt_ms(40)
        assert (conn.channel.uplink.one_way_latency_ttis
                + conn.channel.downlink.one_way_latency_ttis) == 40
