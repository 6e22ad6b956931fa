"""Tests for the EPC stub."""

from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.traffic.epc import EpcStub
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
        assert enb.queue_bytes(rnti) > 0

    def test_overflow_counted_as_dropped(self):
        enb = EnodeB(1, rlc_buffer_bytes=5000)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        epc = EpcStub()
        stats = epc.add_downlink(SaturatingSource(burst_bytes=10_000),
                                 enb, rnti)
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

    def test_remove_flows(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        epc.add_downlink(CbrSource(8.0), enb, rnti)
        epc.add_uplink(CbrSource(1.0), enb, rnti)
        assert epc.remove_flows_for(enb, rnti) == 2
        assert epc.remove_flows_for(enb, rnti) == 0

    def test_remove_flows_is_scoped_to_one_enb(self):
        # Every eNodeB numbers its RNTIs from the same base, so the two
        # cells' UEs share an RNTI; removing one must leave the other.
        enb_a, _, rnti_a = make_cell()
        enb_b = EnodeB(2)
        rnti_b = enb_b.attach_ue(Ue("002", FixedCqi(15)), tti=0)
        assert rnti_a == rnti_b
        epc = EpcStub()
        stats_a = epc.add_downlink(CbrSource(8.0), enb_a, rnti_a)
        stats_b = epc.add_downlink(CbrSource(8.0), enb_b, rnti_b)
        assert epc.remove_flows_for(enb_a, rnti_a) == 1
        for t in range(20):
            epc.tick(t)
        assert stats_a.offered_bytes == 0
        # 1000 B per TTI for 20 TTIs, offered in whole 1400 B packets.
        assert stats_b.offered_bytes == 20_000 // 1400 * 1400


class TestUplink:
    def test_uplink_notifies_enb(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_uplink(CbrSource(8.0), enb, rnti)
        for t in range(10):
            epc.tick(t)
        assert ue.ul_backlog_bytes > 0
        assert stats.offered_bytes == ue.ul_backlog_bytes

    def test_uplink_counts_packets(self):
        enb, ue, rnti = make_cell()
        epc = EpcStub()
        stats = epc.add_uplink(SaturatingSource(burst_bytes=3000), enb, rnti)
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
        assert enb_b.queue_bytes(rnti_b) >= 0
        epc.tick(3)
        assert enb_b.queue_bytes(rnti_b) > 0
