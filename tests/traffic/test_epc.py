"""Tests for the EPC stub."""

from repro.lte import rlc
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.traffic.epc import EpcStub
from repro.traffic import generators
from repro.traffic.generators import CbrSource, SaturatingSource


def make_cell():
    enb = EnodeB(1)
    ue = Ue("001", FixedCqi(15))
    rnti = enb.attach_ue(ue, tti=0)
    return enb, ue, rnti


class TestDownlink:
    def test_flow_feeds_queue(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_downlink(CbrSource(8.0), enb, rnti)
        for t in range(100):
            epc.tick(t)
        assert stats.offered_bytes > 0
        assert stats.accepted_bytes == stats.offered_bytes
        assert enb.rlc[rnti].backlog()[1] > 0

    def test_overflow_counted_as_dropped(self, monkeypatch):
        monkeypatch.setattr(generators, "SATURATING_BURST_BYTES", 10_000)
        monkeypatch.setattr(rlc, "DEFAULT_RLC_BUFFER_BYTES", 5000)
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        epc = EpcStub()
        stats = epc.add_downlink(SaturatingSource(), enb, rnti)
        for t in range(10):
            epc.tick(t)
        assert stats.dropped_bytes > 0
        assert (stats.accepted_bytes + stats.dropped_bytes
                == stats.offered_bytes)

    def test_detached_ue_skipped(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_downlink(CbrSource(8.0), enb, rnti)
        enb.detach_ue(rnti)
        epc.tick(0)
        assert stats.offered_bytes == 0


class TestUplink:
    def test_uplink_notifies_enb(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_uplink(CbrSource(8.0), enb, rnti)
        for t in range(10):
            epc.tick(t)
        assert ue.ul_backlog_bytes > 0
        assert stats.offered_bytes == ue.ul_backlog_bytes

    def test_uplink_counts_packets(self, monkeypatch):
        monkeypatch.setattr(generators, "SATURATING_BURST_BYTES", 3000)
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_uplink(SaturatingSource(), enb, rnti)
        for t in range(10):
            epc.tick(t)
        # 3000 B per TTI is two 1400 B packets and one of 200 B.
        assert stats.offered_packets == 30
        assert stats.offered_bytes == stats.accepted_bytes == 30_000


class TestRehome:
    def test_flows_follow_handover(self):
        enb_a = EnodeB(1)
        enb_b = EnodeB(2)
        ue = Ue("001", FixedCqi(15))
        rnti_a = enb_a.attach_ue(ue, tti=0)
        epc = EpcStub()
        epc.add_downlink(CbrSource(8.0), enb_a, rnti_a)
        enb_a.detach_ue(rnti_a)
        rnti_b = enb_b.attach_ue(ue, tti=1)
        assert epc.rehome(enb_a, rnti_a, enb_b, rnti_b) == 1
        epc.tick(2)
        assert enb_b.rlc[rnti_b].backlog()[1] >= 0
        epc.tick(3)
        assert enb_b.rlc[rnti_b].backlog()[1] > 0
