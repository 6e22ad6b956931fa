"""Tests for RLC and PDCP entities."""

import pytest
from hypothesis import given, strategies as st

from repro.lte.mac.queues import DEFAULT_LCID, SRB_LCID
from repro.lte.pdcp import PDCP_HEADER_BYTES, PDCP_SN_MODULUS, PdcpEntity
from repro.lte import rlc as rlc_module
from repro.lte.rlc import RLC_HEADER_BYTES, RlcEntity


class TestPdcp:
    def test_ingress_adds_header(self):
        pdcp = PdcpEntity(70, set().add)
        assert pdcp.ingress(3, 1000) == 1000 + PDCP_HEADER_BYTES

    def test_sequence_numbers_advance_and_wrap(self):
        pdcp = PdcpEntity(70, set().add)
        for _ in range(PDCP_SN_MODULUS + 2):
            pdcp.ingress(3, 10)
        assert pdcp._tx_sn[3] == 2

    def test_per_bearer_sequencing(self):
        pdcp = PdcpEntity(70, set().add)
        pdcp.ingress(3, 10)
        pdcp.ingress(4, 10)
        pdcp.ingress(4, 10)
        assert pdcp._tx_sn[3] == 1
        assert pdcp._tx_sn[4] == 2

    def test_egress_strips_header(self):
        pdcp = PdcpEntity(70, set().add)
        assert pdcp.egress(3, 1002) == 1000

    def test_stats_accumulate(self):
        pdcp = PdcpEntity(70, set().add)
        pdcp.ingress(3, 500)
        pdcp.ingress(3, 300)
        pdcp.egress(3, 400)
        st3 = pdcp.stats[3]
        assert st3.tx_sdus == 2 and st3.tx_bytes == 800
        assert st3.rx_sdus == 1 and st3.rx_bytes == 400 - PDCP_HEADER_BYTES

    def test_invalid_sdu_rejected(self):
        with pytest.raises(ValueError):
            PdcpEntity(70, set().add).ingress(3, 0)


class TestRlc:
    def test_enqueue_dequeue(self):
        rlc = RlcEntity(70, set().add)
        assert rlc.enqueue(1000, tti=0)
        assert rlc.backlog()[1] == 1000
        got = rlc.dequeue(500, tti=1, lcid=DEFAULT_LCID)
        assert got == 500 - RLC_HEADER_BYTES
        assert rlc.backlog()[1] == 1000 - got

    def test_tiny_budget_yields_nothing(self):
        rlc = RlcEntity(70, set().add)
        rlc.enqueue(100, 0)
        assert rlc.dequeue(RLC_HEADER_BYTES, 0, DEFAULT_LCID) == 0

    def test_priority_drains_srb_first(self):
        rlc = RlcEntity(70, set().add)
        rlc.enqueue(100, 0, lcid=SRB_LCID)
        rlc.enqueue(100, 0, lcid=DEFAULT_LCID)
        taken = rlc.dequeue_priority(110, tti=1)
        assert SRB_LCID in taken
        assert taken[SRB_LCID] == 100
        assert taken.get(DEFAULT_LCID, 0) < 100

    def test_priority_spans_bearers(self):
        rlc = RlcEntity(70, set().add)
        rlc.enqueue(50, 0, lcid=SRB_LCID)
        rlc.enqueue(500, 0, lcid=DEFAULT_LCID)
        taken = rlc.dequeue_priority(10_000, tti=1)
        assert taken[SRB_LCID] == 50
        assert taken[DEFAULT_LCID] == 500

    def test_buffer_limit_drops(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "DEFAULT_RLC_BUFFER_BYTES", 1000)
        rlc = RlcEntity(70, set().add)
        assert rlc.enqueue(900, 0)
        assert not rlc.enqueue(200, 0)
        assert rlc.stats.dropped_sdus == 1
        assert rlc.stats.dropped_bytes == 200

    def test_unbounded_buffer(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "DEFAULT_RLC_BUFFER_BYTES", None)
        rlc = RlcEntity(70, set().add)
        for _ in range(100):
            assert rlc.enqueue(10 ** 6, 0)

    def test_requeue_front(self):
        rlc = RlcEntity(70, set().add)
        rlc.enqueue(100, 0)
        rlc.requeue_front(40, 1, DEFAULT_LCID)
        assert rlc.backlog()[1] == 140
        assert rlc.stats.requeued_bytes == 40

    @given(st.lists(st.integers(min_value=1, max_value=3000), max_size=30),
           st.lists(st.integers(min_value=3, max_value=5000), max_size=30))
    def test_conservation(self, ins, outs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rlc_module, "DEFAULT_RLC_BUFFER_BYTES", None)
            rlc = RlcEntity(70, set().add)
        for size in ins:
            rlc.enqueue(size, 0)
        for budget in outs:
            rlc.dequeue(budget, 0, DEFAULT_LCID)
        assert (rlc.stats.bytes_in
                == rlc.stats.bytes_out + rlc.backlog()[1])
