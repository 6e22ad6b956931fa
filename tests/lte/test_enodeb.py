"""Tests for the eNodeB data plane."""

import pytest

from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnbEventType, EnodeB
from repro.lte.mac.amc import ErrorModel
from repro.lte.mac.dci import DlAssignment, SchedulingContext
from repro.lte.phy.channel import FixedCqi, SquareWaveCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue


def drive(enb, ttis, per_tti=None):
    for t in range(ttis):
        if per_tti:
            per_tti(t)
        enb.tick(t)


class TestAttachment:
    def test_attach_assigns_rnti_and_emits_events(self):
        enb = EnodeB(1)
        events = []
        enb.subscribe(lambda ev: events.append(ev.type))
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        assert ue.rnti == rnti
        assert EnbEventType.RANDOM_ACCESS in events
        drive(enb, 100)
        assert enb.rrc.is_connected(rnti)
        assert EnbEventType.UE_ATTACHED in events

    def test_attach_requires_scheduler(self):
        # With a scheduler that never schedules, attachment times out.
        enb = EnodeB(1)
        enb.dl_scheduler[enb.cell().cell_id] = lambda ctx: []
        events = []
        enb.subscribe(lambda ev: events.append(ev.type))
        rnti = enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        drive(enb, 2100)
        assert not enb.rrc.is_connected(rnti)
        assert EnbEventType.ATTACH_FAILED in events

    def test_detach_cleans_state(self):
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        got = enb.detach_ue(rnti)
        assert got is ue and ue.rnti is None
        assert enb.rntis() == []

    def test_detach_purges_inflight_harq_feedback(self):
        """Regression: stale feedback for a departed UE must not hit a
        later UE that reuses the RNTI (seen on handover)."""
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        for t in range(30):
            enb.enqueue_dl(rnti, 1400, t)
            enb.tick(t)
        # Detach mid-flight: feedback for recent TBs is still pending.
        enb.detach_ue(rnti)
        ue2 = Ue("002", FixedCqi(15))
        rnti2 = enb.attach_ue(ue2, tti=30)
        assert rnti2 != rnti or not enb._pending_feedback
        for t in range(30, 60):
            enb.tick(t)  # must not raise

    def test_rntis_unique(self):
        enb = EnodeB(1)
        rntis = [enb.attach_ue(Ue(f"{i}", FixedCqi(10)), tti=0)
                 for i in range(5)]
        assert len(set(rntis)) == 5


class TestThroughput:
    def test_saturated_reaches_capacity(self):
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        drive(enb, 2000, lambda t: t >= 50 and [
            enb.enqueue_dl(rnti, 1400, t) for _ in range(3)])
        assert ue.throughput_mbps(1999) == pytest.approx(
            capacity_mbps(15, 50), rel=0.05)

    def test_lower_cqi_lower_throughput(self):
        results = {}
        for cqi in (5, 10, 15):
            enb = EnodeB(1)
            ue = Ue("001", FixedCqi(cqi))
            rnti = enb.attach_ue(ue, tti=0)
            drive(enb, 1500, lambda t: t >= 50 and [
                enb.enqueue_dl(rnti, 1400, t) for _ in range(3)])
            results[cqi] = ue.throughput_mbps(1499)
        assert results[5] < results[10] < results[15]

    def test_two_ues_share_capacity(self):
        enb = EnodeB(1)
        ues = [Ue(f"{i}", FixedCqi(15)) for i in range(2)]
        rntis = [enb.attach_ue(u, tti=0) for u in ues]

        def load(t):
            if t >= 50:
                for r in rntis:
                    for _ in range(3):
                        enb.enqueue_dl(r, 1400, t)
        drive(enb, 2000, load)
        total = sum(u.throughput_mbps(1999) for u in ues)
        assert total == pytest.approx(capacity_mbps(15, 50), rel=0.06)

    def test_uplink(self):
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=0)
        drive(enb, 2000, lambda t: t >= 50 and enb.notify_ul(rnti, 4000, t))
        ul_mbps = enb.counters.ul_delivered_bytes * 8 / (2000 * 1000)
        assert ul_mbps == pytest.approx(capacity_mbps(15, 50, uplink=True),
                                        rel=0.08)


class TestHarqRecovery:
    def test_errors_recovered_by_retransmission(self):
        # Channel drops 3 CQI steps for stretches: initial transmissions
        # with stale MCS fail, HARQ retx + RLC requeue recover the data.
        # The flip period (47) is coprime with the SRS refresh period,
        # so stale-MCS windows of a few TTIs occur on most flips.
        enb = EnodeB(1, seed=3, error_model=ErrorModel())
        ue = Ue("001", SquareWaveCqi(12, 9, period_ttis=47))
        rnti = enb.attach_ue(ue, tti=0)
        drive(enb, 4000, lambda t: t >= 50 and [
            enb.enqueue_dl(rnti, 1400, t) for _ in range(2)])
        assert enb.counters.tb_err > 0
        # Goodput stays positive and below the clean-channel ceiling.
        assert 1.0 < ue.throughput_mbps(3999) < capacity_mbps(12, 50)

    def test_scheduling_request_event(self):
        enb = EnodeB(1)
        events = []
        enb.subscribe(lambda ev: events.append(ev.type))
        rnti = enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        enb.notify_ul(rnti, 100, 0)
        assert EnbEventType.SCHEDULING_REQUEST in events
        # A second notification with backlog pending does not re-trigger.
        events.clear()
        enb.notify_ul(rnti, 100, 1)
        assert EnbEventType.SCHEDULING_REQUEST not in events


class TestSchedulerHookContract:
    def test_oversubscribing_hook_rejected(self):
        enb = EnodeB(1)
        rnti = enb.attach_ue(Ue("001", FixedCqi(15)), tti=0)
        enb.enqueue_dl(rnti, 1400, 0)
        enb.dl_scheduler[enb.cell().cell_id] = lambda ctx: [
            DlAssignment(rnti=rnti, n_prb=60, cqi_used=15)]
        with pytest.raises(ValueError):
            enb.plan(0)

    def test_context_reflects_queue_and_cqi(self):
        enb = EnodeB(1)
        rnti = enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        enb.enqueue_dl(rnti, 1000, 0)
        seen = {}

        def spy(ctx: SchedulingContext):
            seen["ctx"] = ctx
            return []

        enb.dl_scheduler[enb.cell().cell_id] = spy
        # At tti 10 random access completes and the UE becomes
        # schedulable (CONNECTING with SRB traffic queued).
        enb.plan(10)
        ctx = seen["ctx"]
        assert ctx.n_prb == 50
        ue_view = ctx.ue(rnti)
        assert ue_view.cqi == 9
        assert ue_view.queue_bytes > 1000  # payload + headers + SRB


class TestMultiCell:
    def test_two_cells_independent(self):
        enb = EnodeB(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)])
        ue_a = Ue("a", FixedCqi(15))
        ue_b = Ue("b", FixedCqi(15))
        ra = enb.attach_ue(ue_a, cell_id=10, tti=0)
        rb = enb.attach_ue(ue_b, cell_id=11, tti=0)

        def load(t):
            if t >= 50:
                for r in (ra, rb):
                    for _ in range(3):
                        enb.enqueue_dl(r, 1400, t)
        drive(enb, 1500, load)
        # Each cell has its own 50 PRBs: both UEs reach full capacity.
        assert ue_a.throughput_mbps(1499) == pytest.approx(
            capacity_mbps(15, 50), rel=0.06)
        assert ue_b.throughput_mbps(1499) == pytest.approx(
            capacity_mbps(15, 50), rel=0.06)

    def test_cell_accessor_requires_id_when_ambiguous(self):
        enb = EnodeB(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)])
        with pytest.raises(ValueError):
            enb.cell()
        assert enb.cell(11).cell_id == 11
