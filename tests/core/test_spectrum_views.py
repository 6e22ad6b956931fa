"""Tests for the cell's downlink PRB cap (``PrbCapConfig``); the cap
over the wire is driven by ``tests/nb/test_server.py``."""

import pytest

from repro.lte.cell import Cell, CellConfig
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import SaturatingSource


class TestPrbCap:
    def test_cap_limits_usable_prbs(self):
        cell = Cell(CellConfig(cell_id=10), set().add, set().add)
        assert cell.n_prb == 50
        cell.set_prb_cap(25)
        assert cell.n_prb == 25
        cell.set_prb_cap(None)
        assert cell.n_prb == 50

    def test_cap_beyond_carrier_is_clamped(self):
        cell = Cell(CellConfig(cell_id=10), set().add, set().add)
        cell.set_prb_cap(80)
        assert cell.n_prb == 50

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Cell(CellConfig(cell_id=10), set().add, set().add).set_prb_cap(-1)

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
