"""Tests for the deployment harness."""

import pytest

from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.sim.scenarios import quickstart
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, SaturatingSource


class TestTopology:
    def test_auto_enb_ids(self):
        sim = Simulation()
        a = sim.add_enb()
        b = sim.add_enb()
        assert a.enb_id == 1 and b.enb_id == 2

    def test_duplicate_enb_rejected(self):
        sim = Simulation()
        sim.add_enb(5)
        with pytest.raises(ValueError):
            sim.add_enb(5)

    def test_agent_requires_master_for_connection(self):
        sim = Simulation()  # no master
        enb = sim.add_enb()
        agent = sim.add_agent(enb)
        assert agent.endpoint is None
        assert sim.connections == {}

    def test_agent_with_master_gets_connection(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb, rtt_ms=20)
        assert agent.endpoint is not None
        channel = sim.connections[agent.agent_id].channel
        assert (channel.uplink.one_way_latency_ttis
                + channel.downlink.one_way_latency_ttis) == 20

    def test_traffic_requires_attached_ue(self):
        sim = Simulation()
        enb = sim.add_enb()
        ue = Ue("001")
        with pytest.raises(ValueError):
            sim.add_downlink_traffic(enb, ue, CbrSource(1.0))


class TestEndToEnd:
    def test_vanilla_cell_throughput(self):
        sim = Simulation()
        enb = sim.add_enb()
        ue = Ue("001", FixedCqi(15))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
        sim.run(2000)
        assert ue.throughput_mbps(sim.now) == pytest.approx(
            capacity_mbps(15, 50), rel=0.05)

    def test_agented_cell_same_throughput(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        sim.add_agent(enb)
        ue = Ue("001", FixedCqi(15))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
        sim.run(2000)
        assert ue.throughput_mbps(sim.now) == pytest.approx(
            capacity_mbps(15, 50), rel=0.05)

    def test_uplink_traffic(self):
        sim = Simulation()
        enb = sim.add_enb()
        ue = Ue("001", FixedCqi(15))
        sim.add_ue(enb, ue)
        sim.add_uplink_traffic(enb, ue, SaturatingSource(start_tti=20))
        sim.run(2000)
        assert enb.counters.ul_delivered_bytes > 0

    def test_master_learns_topology(self):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        agent = sim.add_agent(enb)
        ue = Ue("001", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, CbrSource(1.0, start_tti=30))
        sim.run(200)
        assert sim.master.rib.agent_ids() == [agent.agent_id]
        cells = sim.master.rib.agent(agent.agent_id).cells
        assert ue.rnti in cells[enb.cell().cell_id].ues


class TestHandoverExecutor:
    def test_direct_handover_moves_ue_and_flows(self):
        sim = Simulation()
        enb_a = sim.add_enb(1)
        enb_b = sim.add_enb(2)
        agent_a = sim.add_agent(enb_a)
        sim.add_agent(enb_b)
        ue = Ue("001", FixedCqi(8))
        ue.neighbor_channels = {enb_b.cell().cell_id: FixedCqi(14)}
        sim.add_ue(enb_a, ue)
        sim.add_downlink_traffic(enb_a, ue, CbrSource(1.0, start_tti=30))
        sim.run(500)
        ok = agent_a.rrc.execute_handover(
            ue.rnti, enb_a.cell().cell_id, enb_b.cell().cell_id, sim.now)
        assert ok
        assert ue.serving_cell_id == enb_b.cell().cell_id
        # The channel swapped: now the UE sees the target cell's quality.
        assert ue.measured_cqi(sim.now) == 14
        before = ue.rx_bytes_total
        sim.run(1000)
        assert ue.rx_bytes_total > before

    def test_handover_to_the_serving_cell_is_refused(self):
        sc = quickstart()
        sc.sim.run(100)
        cell = sc.enb.cell()
        rnti = sc.ue.rnti
        assert cell.cell_id == 10 and list(cell.ues) == [rnti]
        sc.sim.master.northbound.send_handover(
            sc.agent.agent_id, rnti, 10, 10)
        sc.sim.run(20)
        assert sc.ue.rnti == rnti
        assert list(cell.ues) == [rnti] and cell.ues[rnti] is sc.ue
        assert not sc.agent.rrc.execute_handover(rnti, 10, 10, sc.sim.now)

    def test_handover_to_unknown_cell_fails(self):
        sim = Simulation()
        enb = sim.add_enb(1)
        agent = sim.add_agent(enb)
        ue = Ue("001", FixedCqi(8))
        sim.add_ue(enb, ue)
        ok = agent.rrc.execute_handover(ue.rnti, enb.cell().cell_id, 999, 0)
        assert not ok
