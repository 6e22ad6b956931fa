"""Tests for the controller applications, run over full deployments."""

import pytest

from repro.core.apps.eicic import AbsOnlyScheduler, EicicMacroScheduler
from repro.core.apps.mec_dash import bitrate_for_cqi
from repro.core.apps.mobility import MobilityManagerApp
from repro.core.apps import monitoring
from repro.core.apps.monitoring import MonitoringApp
from repro.core.apps.ran_sharing import ShareChange
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.sim.metrics import goodput_mbps
from repro.sim.scenarios import (
    centralized_scheduling,
    dash_streaming,
    hetnet_eicic,
    ran_sharing,
    saturated_cell,
)
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource


class TestRemoteScheduler:
    def test_reaches_capacity_at_zero_latency(self):
        sc = centralized_scheduling(ues_per_enb=2, cqi=12)
        sc.sim.run(3000)
        total = sum(u.throughput_mbps(sc.sim.now)
                    for u in sc.ues_per_enb[0])
        assert total == pytest.approx(capacity_mbps(12, 50), rel=0.08)

    def test_activates_remote_stub_over_protocol(self):
        sc = centralized_scheduling(ues_per_enb=1)
        sc.sim.run(100)
        assert sc.agents[0].mac.active_name("dl_scheduling") == "remote_stub"
        assert sc.agents[0].sync_enabled

    def test_ahead_below_rtt_starves_data_plane(self):
        sc = centralized_scheduling(ues_per_enb=1, rtt_ms=20,
                                    schedule_ahead=4)
        sc.sim.run(3000)
        ue = sc.ues_per_enb[0][0]
        assert ue.rx_bytes_total == 0
        assert sc.agents[0].mac.remote_stub.stats.expired_on_arrival > 0

    def test_ahead_at_least_rtt_works(self):
        sc = centralized_scheduling(ues_per_enb=1, rtt_ms=20,
                                    schedule_ahead=24)
        sc.sim.run(4000)
        ue = sc.ues_per_enb[0][0]
        assert ue.throughput_mbps(sc.sim.now) > 0.5 * capacity_mbps(12, 50)

    def test_invalid_ahead_rejected(self):
        from repro.core.apps.remote_scheduler import RemoteSchedulerApp
        with pytest.raises(ValueError):
            RemoteSchedulerApp(schedule_ahead=-1)


class TestMonitoring:
    def test_collects_series(self):
        sc = saturated_cell(cqi=9, with_master=True)
        app = MonitoringApp(period_ttis=50)
        sc.sim.master.add_app(app)
        sc.sim.run(2000)
        key = (sc.agent.agent_id, sc.ues[0].rnti)
        assert key in app.series
        samples = app.series[key]
        assert samples[-1].cqi == 9
        assert samples[-1].rx_bytes_total > 0

    def test_throughput_readout(self, monkeypatch):
        monkeypatch.setattr(monitoring, "STATS_PERIOD_TTIS", 1)
        sc = saturated_cell(cqi=12, with_master=True)
        app = MonitoringApp(period_ttis=50)
        sc.sim.master.add_app(app)
        sc.sim.run(3000)
        mbps = app.throughput_mbps(sc.agent.agent_id, sc.ues[0].rnti,
                                   start_tti=1000)
        assert mbps == pytest.approx(capacity_mbps(12, 50), rel=0.1)


class TestEicicSchedulers:
    def ctx(self, subframe, cqi=10):
        return SchedulingContext(
            tti=subframe, n_prb=50,
            ues=[UeView(rnti=70, queue_bytes=10 ** 6, cqi=cqi)],
            subframe=subframe)

    def test_abs_only_restricts_to_abs(self):
        sched = AbsOnlyScheduler([1, 3])
        assert sched(self.ctx(0)) == []
        assert len(sched(self.ctx(1))) == 1

    def test_macro_local_outside_abs(self):
        sched = EicicMacroScheduler([1, 3])
        assert len(sched(self.ctx(0))) == 1

    def test_macro_muted_during_abs_without_stub(self):
        sched = EicicMacroScheduler([1, 3])
        assert sched(self.ctx(1)) == []

    def test_macro_stub_applies_pushed_decision_during_abs(self):
        class FakeModule:
            pass

        from repro.core.agent.mac_module import RemoteSchedulingStub
        from repro.lte.mac.dci import DlAssignment
        module = FakeModule()
        module.remote_stub = RemoteSchedulingStub()
        sched = EicicMacroScheduler([1])
        sched.bind(module)
        module.remote_stub.store(
            0, 1, [DlAssignment(rnti=70, n_prb=10, cqi_used=10)], now=0)
        out = sched(self.ctx(1))
        assert len(out) == 1 and out[0].n_prb == 10

    def test_invalid_abs_rejected(self):
        with pytest.raises(ValueError):
            AbsOnlyScheduler([10])


class TestEicicScenario:
    @pytest.mark.parametrize("mode", ["uncoordinated", "eicic", "optimized"])
    def test_modes_run_and_order(self, mode):
        sc = hetnet_eicic(mode)
        sc.sim.run(4000)
        macro = sum(goodput_mbps(u.meter.total_bytes, 4000)
                    for u in sc.macro_ues)
        small = goodput_mbps(sc.small_ue.meter.total_bytes, 4000)
        assert macro > 0
        assert small > 0

    def test_ordering_uncoordinated_vs_optimized(self):
        totals = {}
        for mode in ("uncoordinated", "eicic", "optimized"):
            sc = hetnet_eicic(mode)
            sc.sim.run(6000)
            totals[mode] = sum(goodput_mbps(u.meter.total_bytes, 6000)
                               for u in [*sc.macro_ues, sc.small_ue])
        assert totals["optimized"] > totals["eicic"] > totals["uncoordinated"]

    def test_optimized_reclaims_abs(self):
        sc = hetnet_eicic("optimized")
        sc.sim.run(4000)
        assert sc.app.reclaimed_abs > 0


class TestRanSharing:
    def test_fractions_drive_throughput(self):
        sc = ran_sharing(initial_fractions={"mno": 0.7, "mvno": 0.3})
        sc.sim.run(5000)
        mno = sum(goodput_mbps(u.meter.total_bytes, 5000)
                  for u in sc.ues_by_operator["mno"])
        mvno = sum(goodput_mbps(u.meter.total_bytes, 5000)
                   for u in sc.ues_by_operator["mvno"])
        assert mno / mvno == pytest.approx(70 / 30, rel=0.2)

    def test_runtime_reallocation(self):
        sc = ran_sharing(
            initial_fractions={"mno": 0.7, "mvno": 0.3},
            changes=[ShareChange(at_tti=4000,
                                 fractions={"mno": 0.3, "mvno": 0.7})])
        mvno = sc.ues_by_operator["mvno"]
        sc.sim.run(4000)
        mvno_before = sum(u.meter.total_bytes for u in mvno)
        sc.sim.run(4000)
        mvno_after = sum(u.meter.total_bytes for u in mvno) - mvno_before
        # The 0.3 -> 0.7 reallocation should roughly double the MVNO's
        # delivered volume in the second half of the run.
        assert mvno_after > 1.5 * mvno_before
        assert sc.app.applied_changes
        assert sc.app.applied_changes[0][1] == {"mno": 0.3, "mvno": 0.7}

    def test_group_policy(self):
        sc = ran_sharing(ues_per_operator=6, group_split=(4, 2),
                         per_ue_load_mbps=3.0)
        sc.sim.run(6000)
        mvno = sc.ues_by_operator["mvno"]
        premium = [u for u in mvno if u.labels.get("group") == "premium"]
        secondary = [u for u in mvno if u.labels.get("group") == "secondary"]
        prem_each = goodput_mbps(sum(u.meter.total_bytes for u in premium),
                                 6000) / len(premium)
        sec_each = goodput_mbps(sum(u.meter.total_bytes for u in secondary),
                                6000) / len(secondary)
        assert prem_each > sec_each


class TestMecDash:
    def test_bitrate_for_cqi_floor_lookup(self):
        table = {2: 1.4, 3: 2.0, 4: 2.9, 10: 7.3}
        assert bitrate_for_cqi(table, 10) == 7.3
        assert bitrate_for_cqi(table, 7.5) == 2.9
        assert bitrate_for_cqi(table, 1) == 1.4  # below smallest key

    def test_assisted_scenario_sets_targets(self):
        sc = dash_streaming("low", assisted=True)
        sc.sim.run(8000)
        assert sc.client.segments_completed > 0
        app = [r.app for r in sc.sim.master.registry.runnable()
               if r.app.name == "mec_dash"][0]
        assert app.targets_sent

    def test_default_scenario_streams(self):
        sc = dash_streaming("low", assisted=False)
        sc.sim.run(8000)
        assert sc.client.segments_completed > 0


class TestMobility:
    def build(self):
        sim = Simulation(with_master=True)
        enb_a = sim.add_enb(1)
        enb_b = sim.add_enb(2)
        sim.add_agent(enb_a)
        sim.add_agent(enb_b)
        ue = Ue("001", FixedCqi(3))
        ue.neighbor_channels = {enb_b.cell().cell_id: FixedCqi(12)}
        sim.add_ue(enb_a, ue)
        sim.add_downlink_traffic(enb_a, ue, CbrSource(1.0, start_tti=50))
        app = MobilityManagerApp(period_ttis=10, hysteresis_cqi=2,
                                 time_to_trigger_ttis=40)
        sim.master.add_app(app)
        return sim, enb_a, enb_b, ue, app

    def test_handover_to_stronger_neighbor(self):
        sim, enb_a, enb_b, ue, app = self.build()
        sim.run(3000)
        assert app.decisions
        assert ue.serving_cell_id == enb_b.cell().cell_id
        # Traffic keeps flowing after the move (EPC flows re-homed).
        before = ue.rx_bytes_total
        sim.run(1000)
        assert ue.rx_bytes_total > before

    def test_no_handover_without_neighbor_advantage(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb(1)
        sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        ue.neighbor_channels = {99: FixedCqi(12)}  # equal, no hysteresis win
        sim.add_ue(enb, ue)
        app = MobilityManagerApp(period_ttis=10, hysteresis_cqi=2,
                                 time_to_trigger_ttis=20)
        sim.master.add_app(app)
        sim.run(2000)
        assert not app.decisions
