"""Tests for statistics-group filtering and a multi-eNodeB soak run.

A subscription's flags select which statistic groups reach the wire;
what the tests look at is therefore what the master sees --
``codec.decode(codec.encode(reply))`` -- where a group that was not
asked for is absent (its fields read as their defaults) and costs no
bytes.  In memory the reply shares the agent's whole records.
"""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.protocol import codec
from repro.core.protocol.messages import (
    Header,
    ReportType,
    StatsFlags,
    StatsRequest,
    UeStatsReport,
)
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi, GaussMarkovSinr
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


def make_manager(n_ues=2):
    enb = EnodeB(1)
    agent = FlexRanAgent(1, enb)
    rntis = []
    for i in range(n_ues):
        r = enb.attach_ue(Ue(f"{i:03d}", FixedCqi(11)), tti=0)
        enb.enqueue_dl(r, 5000, 0)
        rntis.append(r)
    for t in range(30):
        enb.tick(t)
    return enb, agent.reports, rntis


def request(flags, xid=1, report_type=ReportType.ONE_OFF):
    return StatsRequest(header=Header(xid=xid),
                        report_type=int(report_type),
                        period_ttis=1, flags=int(flags))


class TestStatsFlagFiltering:
    def reply_for(self, flags):
        enb, reports, rntis = make_manager()
        reports.register(request(flags), now=30)
        replies = reports.due_replies(30)
        assert len(replies) == 1
        return codec.decode(codec.encode(replies[0]))

    def test_queues_only(self):
        reply = self.reply_for(StatsFlags.QUEUES)
        rep = reply.ue_reports[0]
        assert rep.groups == StatsFlags.QUEUES
        assert rep.queues  # included
        assert rep.wb_cqi == 0  # CQI group excluded
        assert rep.subband_cqi == []
        assert rep.rlc_bytes_in == 0
        assert reply.cell_reports == []  # CELL excluded

    def test_cqi_only(self):
        reply = self.reply_for(StatsFlags.CQI)
        rep = reply.ue_reports[0]
        assert rep.wb_cqi == 11
        assert rep.subband_cqi
        assert rep.queues == {}
        assert rep.harq_states == []

    def test_cell_only(self):
        reply = self.reply_for(StatsFlags.CELL)
        assert reply.cell_reports
        rep = reply.ue_reports[0]
        assert rep.groups == 0 and rep.rrc_state  # who is there, no more
        assert rep.queues == {} and rep.wb_cqi == 0

    def test_full_includes_everything(self):
        reply = self.reply_for(StatsFlags.FULL)
        rep = reply.ue_reports[0]
        assert rep.queues and rep.wb_cqi == 11 and rep.harq_states
        assert reply.cell_reports

    def test_flag_combination(self):
        reply = self.reply_for(StatsFlags.QUEUES | StatsFlags.RLC)
        rep = reply.ue_reports[0]
        assert rep.queues
        assert rep.rlc_bytes_in > 0
        assert rep.pdcp_tx_bytes == 0

    def test_smaller_flags_mean_smaller_wire_size(self):
        small = len(codec.encode(self.reply_for(StatsFlags.QUEUES)))
        full = len(codec.encode(self.reply_for(StatsFlags.FULL)))
        assert small < full / 2

    def test_invalid_periodic_request_rejected(self):
        enb, reports, _ = make_manager()
        with pytest.raises(ValueError):
            reports.register(StatsRequest(
                header=Header(xid=9),
                report_type=int(ReportType.PERIODIC),
                period_ttis=0), now=0)


class TestSubscriptionsAddUp:
    def test_narrow_fast_stream_does_not_clobber_the_full_slow_one(self):
        """Regression: the RIB used to *replace* a UE's record with
        whatever arrived, and a non-FULL reply carried zero-filled
        fields, so a FULL subscription at 4 TTIs plus a CQI-only one at
        1 TTI left ``queues == {}`` / ``rlc_bytes_in == 0`` in the RIB
        on three TTIs out of four.  Present groups are merged now."""
        sim = Simulation(with_master=True)
        enb = sim.add_enb(1)
        agent = sim.add_agent(enb, rtt_ms=0.0)
        for i in range(4):
            ue = Ue(f"{i:03d}", FixedCqi(9 + i))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(20.0, start_tti=5))
        nb = sim.master.northbound
        full_xid = nb.request_stats(
            agent.agent_id, report_type=ReportType.PERIODIC, period_ttis=4,
            flags=int(StatsFlags.FULL))
        nb.request_stats(agent.agent_id, report_type=ReportType.PERIODIC,
                         period_ttis=1, flags=int(StatsFlags.CQI))
        truth = {}      # rnti -> the agent's record at the last full reply
        checked = backlogged = 0
        original = agent.reports.due_replies

        def due_replies(now):
            replies = original(now)
            if any(r.header.xid == full_xid for r in replies):
                truth.update((r.rnti, r) for r in agent.api.get_ue_stats(now))
            return replies
        agent.reports.due_replies = due_replies
        try:
            for _ in range(150):
                sim.run(1)
                node = sim.master.rib.agent(agent.agent_id)
                for ue in node.all_ues():
                    want = truth.get(ue.rnti)
                    if want is None or ue.stats is None:
                        continue
                    # Equal at every full-subscription TTI and never
                    # zeroed by the CQI-only replies in between.
                    assert ue.stats.queues == want.queues
                    assert ue.stats.rlc_bytes_in == want.rlc_bytes_in
                    assert ue.stats.harq_states == want.harq_states
                    checked += 1
                    backlogged += bool(sum(want.queues.values())
                                       and want.rlc_bytes_in)
            # The two streams add up to a record with every group.
            assert all(ue.stats.groups == UeStatsReport.ALL_GROUPS
                       for ue in node.all_ues())
        finally:
            sim.close()
        assert checked > 500 and backlogged > 300


class TestMultiEnbSoak:
    def test_five_enbs_heterogeneous_apps(self, monkeypatch):
        """A larger deployment: 5 eNodeBs, 40 UEs, monitoring +
        mobility + energy apps coexisting; everything stays consistent."""
        from repro.core.apps import energy as energy_app
        from repro.core.apps.energy import DrxEnergyApp
        from repro.core.apps.monitoring import MonitoringApp

        monkeypatch.setattr(energy_app, "IDLE_WINDOW_TTIS", 300)

        sim = Simulation(with_master=True)
        ues = []
        for e in range(5):
            enb = sim.add_enb(e + 1)
            sim.add_agent(enb, rtt_ms=2.0 * e)
            for i in range(8):
                ue = Ue(f"{e}{i:03d}", GaussMarkovSinr(
                    18.0, sigma_db=1.0, seed=e * 10 + i))
                sim.add_ue(enb, ue)
                if i % 2 == 0:  # half the UEs are active, half idle
                    sim.add_downlink_traffic(
                        enb, ue, CbrSource(1.0, start_tti=100))
                ues.append(ue)
        monitor = MonitoringApp(period_ttis=100)
        energy = DrxEnergyApp()
        sim.master.add_app(monitor)
        sim.master.add_app(energy)
        sim.run(3000)

        assert sim.master.rib.ue_count() == 40
        assert len(sim.master.live_agent_ids()) == 5
        active = [u for i, u in enumerate(ues) if (i % 8) % 2 == 0]
        idle = [u for i, u in enumerate(ues) if (i % 8) % 2 == 1]
        # Active UEs all got their traffic; idle UEs were put to sleep.
        assert all(u.rx_bytes_total > 100_000 for u in active)
        assert len(energy._drx_enabled) == len(idle)
        # The monitor collected series for every UE.
        assert len(monitor.series) == 40
        # No task-manager starvation of either app.
        assert sim.master.registry.registration("monitoring").runs > 0
        assert sim.master.registry.registration("drx_energy_saver").runs > 0
