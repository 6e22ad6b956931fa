"""Tests for the DRX energy saver and carrier aggregation apps,
exercised end-to-end over the FlexRAN protocol."""

from repro.core.apps.carrier_aggregation import CarrierAggregationApp
from repro.core.apps.energy import DrxEnergyApp
from repro.lte.cell import CellConfig
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


class TestDrxEnergyApp:
    def build(self, traffic=None):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        sim.add_ue(enb, ue)
        if traffic is not None:
            sim.add_downlink_traffic(enb, ue, traffic)
        app = DrxEnergyApp()
        sim.master.add_app(app)
        return sim, enb, agent, ue, app

    def test_idle_ue_put_to_sleep(self):
        sim, enb, agent, ue, app = self.build(traffic=None)
        sim.run(3000)
        assert len(app._drx_enabled) == 1
        state = enb.drx.states[ue.rnti]
        # Awake fraction well below always-on over the DRX period.
        assert state.awake_ttis < 0.6 * (state.awake_ttis + state.asleep_ttis)

    def test_active_ue_stays_awake(self):
        sim, enb, agent, ue, app = self.build(
            traffic=CbrSource(5.0, start_tti=50))
        sim.run(3000)
        assert len(app._drx_enabled) == 0
        assert not enb.drx.is_configured(ue.rnti)

    def test_drx_lifted_when_traffic_resumes(self):
        # Quiet for 3 s, then traffic arrives.
        sim, enb, agent, ue, app = self.build(
            traffic=CbrSource(5.0, start_tti=3000))
        sim.run(2900)
        assert len(app._drx_enabled) == 1
        sim.run(2000)
        assert len(app._drx_enabled) == 0
        # Traffic flows at (near) full rate once DRX is lifted.
        assert ue.throughput_mbps(sim.now) > 4.0


class TestCarrierAggregationApp:
    def build(self, rate_mbps):
        sim = Simulation(with_master=True)
        enb = sim.add_enb(1, [CellConfig(cell_id=10),
                              CellConfig(cell_id=11)])
        agent = sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        ue.carrier_channels[11] = FixedCqi(12)
        sim.add_ue(enb, ue, cell_id=10)
        sim.add_downlink_traffic(enb, ue, CbrSource(rate_mbps, start_tti=100))
        app = CarrierAggregationApp(scell_map={10: 11})
        sim.master.add_app(app)
        return sim, enb, agent, ue, app

    def test_backlogged_ue_gets_scell(self):
        # Offered 30 Mb/s > single-carrier ~17.5 Mb/s: backlog builds,
        # the app aggregates, and both carriers drain the queue.
        sim, enb, agent, ue, app = self.build(rate_mbps=30.0)
        sim.run(6000)
        assert len(app._active) == 1
        assert ue.rnti in enb.cells[11].ues
        # With the SCell the UE sustains the full 30 Mb/s offered load.
        assert ue.throughput_mbps(sim.now) > capacity_mbps(12, 50)

    def test_light_ue_not_aggregated(self):
        sim, enb, agent, ue, app = self.build(rate_mbps=2.0)
        sim.run(4000)
        assert len(app._active) == 0
        assert ue.rnti not in enb.cells[11].ues

    def test_scell_released_after_load_drops(self):
        sim, enb, agent, ue, app = self.build(rate_mbps=30.0)
        sim.run(4000)
        assert len(app._active) == 1
        # Stop the traffic by replacing the source's stop time.
        sim.epc._downlink[0].source.stop_tti = sim.now
        sim.run(6000)
        assert len(app._active) == 0
        assert ue.rnti not in enb.cells[11].ues
        activations = [d for d in app.decisions if d.activated]
        releases = [d for d in app.decisions if not d.activated]
        assert len(activations) == 1 and len(releases) == 1
