"""Tests for bearer QoS: profiles, token buckets, the QoS scheduler."""

import pytest

from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.mac.qos import QosProfile, QosScheduler
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.sim.metrics import goodput_mbps


class TestQosProfile:
    def test_gbr_requires_rate(self):
        QosProfile(qci=1, gbr_mbps=1.0)
        with pytest.raises(ValueError):
            QosProfile(qci=1)
        with pytest.raises(ValueError):
            QosProfile(qci=1, gbr_mbps=0.0)

    def test_ngbr_rejects_rate(self):
        QosProfile(qci=9)
        with pytest.raises(ValueError):
            QosProfile(qci=9, gbr_mbps=1.0)

    def test_unknown_qci(self):
        with pytest.raises(ValueError):
            QosProfile(qci=42)

    def test_priorities_follow_23203(self):
        assert QosProfile(qci=1, gbr_mbps=0.1).priority == 2
        assert QosProfile(qci=5).priority == 1
        assert QosProfile(qci=9).priority == 9

def view(rnti, queues, cqi=10, **labels):
    return UeView(rnti=rnti, queue_bytes=sum(queues.values()), cqi=cqi,
                  queues=dict(queues), labels=dict(labels))


class TestQosScheduler:
    def ctx(self, ues, bearer_qos, tti=0, n_prb=50):
        return SchedulingContext(tti=tti, n_prb=n_prb, ues=ues,
                                 bearer_qos=bearer_qos)

    def test_gbr_bearer_served_first(self):
        sched = QosScheduler()
        ues = [view(70, {4: 50_000}), view(71, {3: 50_000})]
        qos = {(70, 4): QosProfile(qci=1, gbr_mbps=5.0)}
        out = sched(self.ctx(ues, qos))
        gbr = [a for a in out if a.rnti == 70 and a.lcid == 4]
        assert gbr, "the GBR bearer must receive an assignment"

    def test_token_bucket_caps_gbr_rate(self):
        """A 2 Mb/s GBR bearer gets ~2 Mb/s worth of grants per second
        even with unlimited backlog."""
        sched = QosScheduler()
        qos = {(70, 4): QosProfile(qci=1, gbr_mbps=2.0)}
        granted = 0
        for t in range(1000):
            ues = [view(70, {4: 10 ** 7})]
            out = sched(self.ctx(ues, qos, tti=t))
            for a in out:
                if a.lcid == 4:
                    # Count the bytes the grant was sized for.
                    from repro.lte.phy.tbs import transport_block_bits
                    granted += transport_block_bits(a.cqi_used, a.n_prb) // 8
        granted_mbps = granted * 8 / 1000 / 1000
        assert granted_mbps == pytest.approx(2.0, rel=0.3)

    def test_priority_order_between_gbr_bearers(self):
        """Under PRB scarcity the higher-priority QCI wins."""
        sched = QosScheduler()
        qos = {(70, 4): QosProfile(qci=1, gbr_mbps=20.0),   # priority 2
               (71, 4): QosProfile(qci=4, gbr_mbps=20.0)}   # priority 5
        ues = [view(70, {4: 10 ** 7}), view(71, {4: 10 ** 7})]
        out = sched(self.ctx(ues, qos, n_prb=10))
        assert out and out[0].rnti == 70

    def test_best_effort_gets_leftovers(self):
        sched = QosScheduler()
        qos = {(70, 4): QosProfile(qci=1, gbr_mbps=1.0)}
        ues = [view(70, {4: 10 ** 6}), view(71, {3: 10 ** 6})]
        out = sched(self.ctx(ues, qos))
        assert any(a.rnti == 71 for a in out)

    def test_no_qos_config_degenerates_to_fair(self):
        sched = QosScheduler()
        ues = [view(70, {3: 10 ** 6}), view(71, {3: 10 ** 6})]
        out = sched(self.ctx(ues, {}))
        prbs = {a.rnti: a.n_prb for a in out}
        assert prbs[70] == prbs[71]

    def test_never_oversubscribes(self):
        sched = QosScheduler()
        qos = {(70 + i, 4): QosProfile(qci=1, gbr_mbps=10.0)
               for i in range(10)}
        ues = [view(70 + i, {3: 10 ** 6, 4: 10 ** 6}) for i in range(10)]
        for t in range(50):
            out = sched(self.ctx(ues, qos, tti=t))
            assert sum(a.n_prb for a in out) <= 50


class TestQosEndToEnd:
    def test_gbr_protected_under_congestion(self):
        """Offered load saturates the cell; the GBR bearer still gets
        its guaranteed rate while best-effort UEs absorb the loss."""
        enb = EnodeB(1)
        agent_ue = Ue("gbr", FixedCqi(10))
        others = [Ue(f"be{i}", FixedCqi(10)) for i in range(3)]
        gbr_rnti = enb.attach_ue(agent_ue, tti=0)
        be_rntis = [enb.attach_ue(u, tti=0) for u in others]
        enb.configure_bearer(gbr_rnti, 4, QosProfile(qci=1, gbr_mbps=3.0))
        enb.dl_scheduler[enb.cell().cell_id] = QosScheduler()

        cell_capacity = capacity_mbps(10, 50)  # ~12.3 Mb/s
        for t in range(6000):
            if t >= 50:
                # GBR flow offered exactly 3 Mb/s on lcid 4.
                if t % 4 == 0:
                    enb.enqueue_dl(gbr_rnti, 1500, t, lcid=4)
                # Each BE UE offered ~6 Mb/s: heavy congestion.
                for r in be_rntis:
                    if t % 2 == 0:
                        enb.enqueue_dl(r, 1500, t)
            enb.tick(t)
        gbr_mbps = goodput_mbps(agent_ue.meter.total_bytes, 6000)
        be_each = [goodput_mbps(u.meter.total_bytes, 6000) for u in others]
        assert gbr_mbps == pytest.approx(3.0, rel=0.1)
        # Best effort split the remainder roughly equally.
        for be in be_each:
            assert be < gbr_mbps + 1.0
        assert sum(be_each) + gbr_mbps <= cell_capacity * 1.05

    def test_bearer_config_over_protocol(self):
        from repro.core.agent import FlexRanAgent
        from repro.net.transport import ControlConnection
        from repro.core.controller import MasterController

        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        master = MasterController()
        master.connect_agent(1, conn.master_side)
        rnti = enb.attach_ue(Ue("001", FixedCqi(10)), tti=0)
        master.northbound.set_bearer_qos(1, enb.cell().cell_id, rnti, 4,
                                         qci=1, gbr_mbps=2.0)
        agent.tick_rx(0)
        profile = enb.bearer_qos[(rnti, 4)]
        assert profile.qci == 1
        assert profile.gbr_mbps == pytest.approx(2.0)

    def test_invalid_bearer_config_rejected(self):
        enb = EnodeB(1)
        rnti = enb.attach_ue(Ue("001", FixedCqi(10)), tti=0)
        with pytest.raises(KeyError):
            enb.configure_bearer(999, 4, QosProfile(qci=9))
        with pytest.raises(ValueError):
            enb.configure_bearer(rnti, 1, QosProfile(qci=9))  # SRB
