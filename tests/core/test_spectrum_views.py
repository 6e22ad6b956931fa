"""Tests for the LSA spectrum app, PRB caps, and the RIB views."""

import pytest

from repro.core.apps.spectrum import (
    IncumbentWindow,
    LsaAgreement,
    LsaSpectrumApp,
)
from repro.core.controller.views import (
    cell_loads,
    congested_cells,
    least_loaded_cell,
    ue_qualities,
)
from repro.core.protocol.messages import ReportType
from repro.lte.cell import Cell, CellConfig
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, SaturatingSource


class TestPrbCap:
    def test_cap_limits_usable_prbs(self):
        cell = Cell(CellConfig(cell_id=10), set().add)
        assert cell.n_prb == 50
        cell.set_prb_cap(25)
        assert cell.n_prb == 25
        cell.set_prb_cap(None)
        assert cell.n_prb == 50

    def test_cap_beyond_carrier_is_clamped(self):
        cell = Cell(CellConfig(cell_id=10), set().add)
        cell.set_prb_cap(80)
        assert cell.n_prb == 50

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Cell(CellConfig(cell_id=10), set().add).set_prb_cap(-1)

    def test_cap_halves_saturated_throughput(self):
        results = {}
        for cap in (None, 25):
            sim = Simulation()
            enb = sim.add_enb()
            if cap is not None:
                enb.cell().set_prb_cap(cap)
            ue = Ue("001", FixedCqi(12))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
            sim.run(2000)
            results[cap] = ue.throughput_mbps(sim.now)
        assert results[25] == pytest.approx(results[None] / 2, rel=0.1)


class TestIncumbentWindow:
    def test_activity(self):
        w = IncumbentWindow(100, 200)
        assert not w.active(99)
        assert w.active(100)
        assert w.active(199)
        assert not w.active(200)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            IncumbentWindow(100, 100)


class TestLsaApp:
    def build(self, windows):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
        app = LsaSpectrumApp([LsaAgreement(
            agent_id=agent.agent_id, cell_id=enb.cell().cell_id,
            licensed_prbs=25, windows=tuple(windows))])
        sim.master.add_app(app)
        return sim, enb, ue, app

    def test_vacate_and_restore(self):
        sim, enb, ue, app = self.build([IncumbentWindow(1000, 2000)])
        sim.run(500)
        assert enb.cell().n_prb == 50
        sim.run(1000)  # now inside the incumbent window
        assert enb.cell().n_prb == 25
        sim.run(1500)  # past the window
        assert enb.cell().n_prb == 50
        assert app.vacate_commands == 1
        assert app.restore_commands == 1

    def test_throughput_tracks_spectrum(self):
        sim, enb, ue, app = self.build([IncumbentWindow(2000, 4000)])
        sim.run(2000)
        full_rate = ue.throughput_mbps(sim.now)
        sim.run(2000)
        shared_rate = ue.throughput_mbps(sim.now)
        sim.run(2000)
        restored_rate = ue.throughput_mbps(sim.now)
        assert shared_rate == pytest.approx(full_rate / 2, rel=0.15)
        assert restored_rate == pytest.approx(full_rate, rel=0.1)

    def test_notice_sends_commands_early(self):
        sim, enb, ue, app = self.build([IncumbentWindow(1000, 2000)])
        app.notice_ttis = 50
        sim.run(960)
        assert app.current_cap(1, enb.cell().cell_id) == 25

    def test_invalid_notice(self):
        with pytest.raises(ValueError):
            LsaSpectrumApp([], notice_ttis=-1)


class TestRibViews:
    def build_deployment(self, n_ues=3, cqi=12, load_mbps=30.0):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb)
        ues = []
        for i in range(n_ues):
            ue = Ue(f"00{i}", FixedCqi(cqi))
            ue.neighbor_channels = {99: FixedCqi(min(15, cqi + 3))}
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(
                enb, ue, CbrSource(load_mbps / n_ues, start_tti=30))
            ues.append(ue)
        sim.master.northbound.request_stats(
            agent.agent_id, report_type=ReportType.PERIODIC, period_ttis=5)
        return sim, enb, agent, ues

    def test_cell_loads(self):
        sim, enb, agent, ues = self.build_deployment()
        sim.run(1000)
        loads = cell_loads(sim.master.rib)
        assert len(loads) == 1
        load = loads[0]
        assert load.connected_ues == 3
        assert load.mean_cqi == pytest.approx(12.0)
        assert 0.0 <= load.dl_prb_utilization <= 1.0

    def test_congestion_detection(self):
        # Offered 30 Mb/s over a ~17.5 Mb/s cell: saturated + backlog.
        sim, enb, agent, ues = self.build_deployment(load_mbps=30.0)
        sim.run(2000)
        congested = congested_cells(sim.master.rib)
        assert len(congested) == 1
        # Lightly loaded cell is not congested.
        sim2, enb2, agent2, _ = self.build_deployment(load_mbps=2.0)
        sim2.run(2000)
        assert congested_cells(sim2.master.rib) == []

    def test_ue_qualities_and_handover_candidates(self):
        sim, enb, agent, ues = self.build_deployment(cqi=8)
        sim.run(1000)
        qualities = ue_qualities(sim.master.rib)
        assert len(qualities) == 3
        q = qualities[0]
        assert q.cqi == 8
        assert q.estimated_capacity_mbps == pytest.approx(
            capacity_mbps(8, 50))
        assert q.best_neighbor == (99, 11)
        assert q.handover_candidate

    def test_least_loaded_cell(self):
        sim = Simulation(with_master=True)
        enb_a = sim.add_enb(1)
        enb_b = sim.add_enb(2)
        sim.add_agent(enb_a)
        sim.add_agent(enb_b)
        for i in range(3):
            ue = Ue(f"a{i}", FixedCqi(10))
            sim.add_ue(enb_a, ue)
        ue_b = Ue("b0", FixedCqi(10))
        sim.add_ue(enb_b, ue_b)
        sim.run(300)
        best = least_loaded_cell(sim.master.rib)
        assert best is not None
        assert best.agent_id == 2

    def test_views_on_empty_rib(self):
        sim = Simulation(with_master=True)
        sim.run(5)
        assert cell_loads(sim.master.rib) == []
        assert ue_qualities(sim.master.rib) == []
        assert least_loaded_cell(sim.master.rib) is None
