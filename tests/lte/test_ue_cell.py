"""Tests for the UE model, rate meter, and cell state."""

import pytest

from repro.lte.cell import Cell, CellConfig
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.phy.channel import FixedCqi, InterferenceChannel, SquareWaveCqi
from repro.lte.phy.cqi import cqi_to_sinr_floor
from repro.lte.ue import RateMeter, Ue
from repro.sim.metrics import goodput_mbps


class TestRateMeter:
    def test_rate_over_window(self):
        m = RateMeter(window_ttis=1000)
        for t in range(1000):
            m.add(1000, t)  # 1000 B/ms = 8 Mb/s
        assert m.rate_mbps(999) == pytest.approx(8.0, rel=0.01)

    def test_old_samples_evicted(self):
        m = RateMeter(window_ttis=100)
        m.add(10_000, 0)
        assert m.rate_mbps(50) > 0
        assert m.rate_mbps(500) == 0.0

    def test_mean_mbps(self):
        m = RateMeter()
        m.add(125_000, 0)  # 1 Mb
        assert m.total_bytes == 125_000
        assert goodput_mbps(m.total_bytes, 1000) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RateMeter(0)
        with pytest.raises(ValueError):
            RateMeter().add(-1, 0)


class TestUe:
    def test_delivery_accounting_and_callbacks(self):
        ue = Ue("001", FixedCqi(10))
        got = []
        ue.on_delivery(lambda n, t: got.append((n, t)))
        ue.deliver(500, 10)
        ue.deliver(0, 11)  # ignored
        assert ue.rx_bytes_total == 500
        assert got == [(500, 10)]

    def test_uplink_buffering(self):
        ue = Ue("001", FixedCqi(10))
        ue.generate_ul(1000)
        assert ue.ul_backlog_bytes == 1000
        assert ue.send_ul(600, 0) == 600
        assert ue.ul_backlog_bytes == 400
        assert ue.send_ul(600, 1) == 400
        assert ue.ul_sent_bytes == 1000

    def test_measured_cqi_tracks_channel(self):
        ue = Ue("001", SquareWaveCqi(10, 4, period_ttis=10))
        assert ue.measured_cqi(0) == 10
        assert ue.measured_cqi(10) == 4

    def test_default_channel_is_cqi15(self):
        assert Ue("001").measured_cqi(0) == 15

    def test_labels_copied(self):
        labels = {"operator": "mno"}
        ue = Ue("001", FixedCqi(10), labels=labels)
        labels["operator"] = "other"
        assert ue.labels["operator"] == "mno"


class TestCellConfig:
    def test_prb_mapping(self):
        cfg = CellConfig(cell_id=1, dl_bandwidth_mhz=10.0)
        assert cfg.n_prb_dl == 50
        assert CellConfig(cell_id=1, dl_bandwidth_mhz=20.0).n_prb_dl == 100

    def test_nonstandard_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            CellConfig(cell_id=1, dl_bandwidth_mhz=7.0).n_prb_dl


class TestCell:
    def make_cell(self):
        return Cell(CellConfig(cell_id=10), set().add, set().add)

    def test_add_remove_ue(self):
        cell = self.make_cell()
        ue = Ue("001", FixedCqi(10))
        cell.add_ue(70, ue, 0)
        assert ue.serving_cell_id == 10
        assert sorted(cell.ues) == [70]
        assert cell.remove_ue(70) is ue
        assert sorted(cell.ues) == []

    def test_duplicate_rnti_rejected(self):
        cell = self.make_cell()
        cell.add_ue(70, Ue("001"), 0)
        with pytest.raises(ValueError):
            cell.add_ue(70, Ue("002"), 0)

    def test_cqi_refresh_period(self):
        cell = self.make_cell()
        cell.add_ue(70, Ue("001", SquareWaveCqi(
            10, 4, period_ttis=SRS_PERIOD_TTIS)), 0)
        assert cell.known_cqi[70] == 10
        # Channel already flipped at tti 10+? No: refresh within the SRS
        # period keeps the stale value even though the channel moved.
        cell.refresh_cqi(SRS_PERIOD_TTIS - 1)
        assert cell.known_cqi[70] == 10
        cell.refresh_cqi(SRS_PERIOD_TTIS)
        assert cell.known_cqi[70] == 4

    def test_abs_pattern(self):
        cell = self.make_cell()
        cell.set_abs_pattern([1, 3])
        assert cell.is_muted(1) and cell.is_muted(13)
        assert not cell.is_muted(2)
        with pytest.raises(ValueError):
            cell.set_abs_pattern([12])

    def test_interference_scheduling_cqi(self):
        aggressor = Cell(CellConfig(cell_id=20), set().add, set().add)
        victim = self.make_cell()
        victim.set_interference_source(aggressor)
        ue = Ue("001", InterferenceChannel(
            cqi_to_sinr_floor(12) + 0.1, cqi_to_sinr_floor(2) + 0.1))
        victim.add_ue(70, ue, 0)
        assert victim.known_cqi[70] == 2
        assert victim.known_cqi_clear[70] == 12
        # Aggressor silent in subframe 1 -> clear CQI applies.
        aggressor.set_abs_pattern([1])
        assert victim.scheduling_cqi(70, 1) == 12
        assert victim.scheduling_cqi(70, 2) == 2

    def test_actual_cqi_depends_on_real_transmission(self):
        aggressor = Cell(CellConfig(cell_id=20), set().add, set().add)
        victim = self.make_cell()
        victim.set_interference_source(aggressor)
        ue = Ue("001", InterferenceChannel(
            cqi_to_sinr_floor(12) + 0.1, cqi_to_sinr_floor(2) + 0.1))
        victim.add_ue(70, ue, 0)
        aggressor.mark_transmission(100, True)
        assert victim.actual_cqi(70, 100) == 2
        aggressor.mark_transmission(101, False)
        assert victim.actual_cqi(70, 101) == 12

    def test_no_interferer_means_clear(self):
        cell = self.make_cell()
        cell.add_ue(70, Ue("001", FixedCqi(9)), 0)
        assert cell.scheduling_cqi(70, 0) == 9
        assert cell.actual_cqi(70, 0) == 9
