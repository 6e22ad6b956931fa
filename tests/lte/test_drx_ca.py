"""Tests for DRX sleep cycles and carrier aggregation in the data plane."""

import pytest

from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig, DrxManager, DrxState
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.rrc import RrcState
from repro.lte.ue import Ue


class TestDrxState:
    def test_no_config_always_awake(self):
        state = DrxState()
        assert all(state.is_awake(t) for t in range(200))

    def test_on_duration_window(self):
        state = DrxState(config=DrxConfig(cycle_ttis=40, on_duration_ttis=4,
                                          inactivity_ttis=0))
        assert state.is_awake(0)
        assert state.is_awake(3)
        assert not state.is_awake(4)
        assert not state.is_awake(39)
        assert state.is_awake(40)

    def test_inactivity_timer_extends_wakefulness(self):
        state = DrxState(config=DrxConfig(cycle_ttis=40, on_duration_ttis=4,
                                          inactivity_ttis=10))
        state.note_activity(3)
        assert state.is_awake(8)   # within inactivity window
        assert state.is_awake(13)  # boundary (<=)
        assert not state.is_awake(14)

    def test_accounting(self):
        state = DrxState(config=DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                          inactivity_ttis=0))
        for t in range(100):
            state.account(t)
        assert state.awake_ttis == 20
        assert state.asleep_ttis == 80

    @pytest.mark.parametrize("kw", [
        dict(cycle_ttis=0),
        dict(cycle_ttis=10, on_duration_ttis=0),
        dict(cycle_ttis=10, on_duration_ttis=11),
        dict(cycle_ttis=10, inactivity_ttis=-1),
    ])
    def test_invalid_config(self, kw):
        defaults = dict(cycle_ttis=10, on_duration_ttis=2,
                        inactivity_ttis=0)
        defaults.update(kw)
        with pytest.raises(ValueError):
            DrxConfig(**defaults)


class TestDrxManager:
    def test_configure_and_disable(self):
        mgr = DrxManager(set().add)
        mgr.configure(70, DrxConfig(cycle_ttis=10, on_duration_ttis=2))
        assert list(mgr.states) == [70]
        assert not mgr.is_awake(70, 5)
        mgr.configure(70, None)
        assert mgr.is_awake(70, 5)
        assert mgr.states == {}

    def test_reading_a_state_never_enrols_the_ue(self):
        # Regression: the per-UE lookup used to create a DrxState on
        # read, so one read after DRX was disabled made the UE
        # configured again, charged by account_all every TTI.
        mgr = DrxManager(set().add)
        mgr.configure(5, DrxConfig())
        mgr.configure(5, None)
        assert mgr.states.get(5) is None
        assert not mgr.is_configured(5)
        mgr.account_all(0)
        assert mgr.states == {}
        assert mgr.retired_awake_ttis + mgr.retired_asleep_ttis == 0

    def test_disable_drops_state_and_folds_energy_totals(self):
        # Regression: disabling DRX used to leave a zombie DrxState in
        # the manager (still visited by account_all every TTI) and its
        # awake/asleep counters vanished from the energy proxy.
        mgr = DrxManager(set().add)
        mgr.configure(70, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        for tti in range(40):
            mgr.account_all(tti)
        state = mgr.states[70]
        awake, asleep = state.awake_ttis, state.asleep_ttis
        assert asleep > 0
        mgr.configure(70, None)
        # State dropped entirely: the per-TTI accounting loop must not
        # keep paying for a UE whose DRX is off.
        assert 70 not in mgr.states
        assert not mgr.is_configured(70)
        # ... but the energy totals survive in the retired counters.
        assert mgr.retired_awake_ttis == awake
        assert mgr.retired_asleep_ttis == asleep
        # Re-enabling starts fresh accounting; a later detach folds too.
        mgr.configure(70, DrxConfig(cycle_ttis=10, on_duration_ttis=2,
                                    inactivity_ttis=0))
        assert mgr.states[70].awake_ttis == 0
        for tti in range(10):
            mgr.account_all(tti)
        mgr.remove(70)
        assert 70 not in mgr.states
        assert mgr.retired_awake_ttis + mgr.retired_asleep_ttis \
            == awake + asleep + 10


class TestEnodebDrx:
    def build(self):
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(12))
        rnti = enb.attach_ue(ue, tti=0)
        # Complete attachment before enabling DRX.
        for t in range(60):
            enb.tick(t)
        assert enb.rrc.state_of(rnti) is RrcState.CONNECTED
        return enb, ue, rnti

    def test_sleeping_ue_not_scheduled(self):
        enb, ue, rnti = self.build()
        enb.set_drx(rnti, DrxConfig(cycle_ttis=100, on_duration_ttis=10,
                                    inactivity_ttis=0))
        # Enqueue while the UE is asleep (subframe 60-99 of the cycle).
        delivered_before = ue.rx_bytes_total
        enb.enqueue_dl(rnti, 1000, 60)
        for t in range(60, 95):
            enb.tick(t)
        assert ue.rx_bytes_total == delivered_before
        # Next on-duration: the data flows.
        for t in range(95, 115):
            enb.tick(t)
        assert ue.rx_bytes_total > delivered_before

    def test_awake_fraction_drops_when_idle(self):
        enb, ue, rnti = self.build()
        enb.set_drx(rnti, DrxConfig(cycle_ttis=80, on_duration_ttis=8,
                                    inactivity_ttis=10))
        for t in range(60, 2060):
            enb.tick(t)
        state = enb.drx.states[rnti]
        assert state.awake_ttis < 0.2 * (state.awake_ttis + state.asleep_ttis)

    def test_unknown_rnti_rejected(self):
        enb = EnodeB(1)
        with pytest.raises(KeyError):
            enb.set_drx(99, None)


class TestCarrierAggregation:
    def build(self):
        enb = EnodeB(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)])
        ue = Ue("001", FixedCqi(12))
        ue.carrier_channels[11] = FixedCqi(12)
        rnti = enb.attach_ue(ue, cell_id=10, tti=0)
        for t in range(60):
            enb.tick(t)
        return enb, ue, rnti

    def test_scell_activation_doubles_throughput(self):
        enb, ue, rnti = self.build()

        def saturate(start, end):
            begin = ue.rx_bytes_total
            for t in range(start, end):
                for _ in range(4):
                    enb.enqueue_dl(rnti, 1400, t)
                enb.tick(t)
            return (ue.rx_bytes_total - begin) * 8 / (end - start) / 1000

        single = saturate(60, 1060)
        enb.activate_scell(rnti, 11, tti=1060)
        dual = saturate(1060, 2060)
        assert single == pytest.approx(capacity_mbps(12, 50), rel=0.08)
        assert dual == pytest.approx(2 * capacity_mbps(12, 50), rel=0.08)

    def test_deactivation_returns_to_single_carrier(self):
        enb, ue, rnti = self.build()
        enb.activate_scell(rnti, 11, tti=60)
        assert rnti in enb.cells[11].ues
        enb.deactivate_scell(rnti, 11)
        assert rnti not in enb.cells[11].ues
        assert rnti not in enb.cells[11].ues
        # Primary serving relationship is untouched.
        assert ue.serving_cell_id == 10

    def test_activation_is_idempotent(self):
        enb, ue, rnti = self.build()
        enb.activate_scell(rnti, 11, tti=60)
        enb.activate_scell(rnti, 11, tti=61)
        assert rnti in enb.cells[11].ues

    def test_pcell_cannot_be_scell(self):
        enb, ue, rnti = self.build()
        with pytest.raises(ValueError):
            enb.activate_scell(rnti, 10)

    def test_unknown_scell_rejected(self):
        enb, ue, rnti = self.build()
        with pytest.raises(KeyError):
            enb.activate_scell(rnti, 99)

    def test_per_carrier_channels(self):
        enb = EnodeB(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)])
        ue = Ue("001", FixedCqi(12))
        ue.carrier_channels[11] = FixedCqi(5)
        rnti = enb.attach_ue(ue, cell_id=10, tti=0)
        enb.activate_scell(rnti, 11, tti=0)
        assert enb.cells[10].known_cqi[rnti] == 12
        assert enb.cells[11].known_cqi[rnti] == 5

    def test_detach_cleans_scell_state(self):
        enb, ue, rnti = self.build()
        enb.activate_scell(rnti, 11, tti=60)
        enb.detach_ue(rnti)
        assert rnti not in enb.cells[10].ues
        assert rnti not in enb.cells[11].ues
        for t in range(60, 100):
            enb.tick(t)  # no stale-feedback crash
