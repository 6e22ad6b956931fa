"""Tests for agent liveness monitoring and centralized UL scheduling."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.apps.base import App
from repro.core.controller import MasterController
from repro.core.controller.rib import AgentLiveness
from repro.core.protocol.messages import DciSpec, UlMacCommand
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection
from repro.sim.scenarios import centralized_scheduling
from repro.traffic.generators import SaturatingSource


class TestLiveness:
    def build(self):
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        master = MasterController(echo_period_ttis=100,
                                  liveness_timeout_ttis=300)
        master.connect_agent(1, conn.master_side)
        return enb, agent, master, conn

    def drive(self, enb, agent, master, start, end, *, agent_alive=True):
        for t in range(start, end):
            if agent_alive:
                agent.tick_tx(t)
            master.tick(t)
            if agent_alive:
                agent.tick_rx(t)
            enb.tick(t)

    def test_healthy_agent_stays_alive(self):
        enb, agent, master, conn = self.build()
        enb.attach_ue(Ue("001", FixedCqi(12)), tti=0)
        self.drive(enb, agent, master, 0, 1000)
        assert master.live_agent_ids() == [1]
        assert master.agents_declared_dead == 0

    def test_quiet_agent_gets_echo_probe(self):
        enb, agent, master, conn = self.build()
        self.drive(enb, agent, master, 0, 5)
        # Now the agent keeps responding but originates nothing new; the
        # echo exchange itself keeps it alive.
        self.drive(enb, agent, master, 5, 1000)
        assert agent.messages_handled > 0  # echoes were received
        assert master.live_agent_ids() == [1]

    def test_dead_agent_detected_and_revived(self):
        enb, agent, master, conn = self.build()
        self.drive(enb, agent, master, 0, 50)
        assert master.rib.agent(1).alive
        # The agent process "dies": no tx/rx, messages pile up unread.
        self.drive(enb, agent, master, 50, 500, agent_alive=False)
        assert not master.rib.agent(1).alive
        assert master.agents_declared_dead == 1
        assert master.live_agent_ids() == []
        # It comes back: first message flips it to alive again.
        self.drive(enb, agent, master, 500, 560)
        assert master.rib.agent(1).alive

    def test_invalid_liveness_config(self):
        with pytest.raises(ValueError):
            MasterController(echo_period_ttis=100,
                             liveness_timeout_ttis=100)


class NorthboundReader(App):
    """Reads what docs/WRITING_APPS.md tells applications to read."""

    name = "nb_reader"

    def __init__(self):
        self.seen = {}

    def run(self, tti, nb):
        if tti == 30:  # both agents have joined the RIB by now
            for agent_id in nb.agent_ids():
                nb.enable_sync(agent_id)
        self.seen[tti] = {
            agent_id: (nb.agent_liveness(agent_id),
                       nb.estimated_agent_tti(agent_id))
            for agent_id in nb.agent_ids()}


class TestNorthboundReads:
    """``agent_liveness`` / ``estimated_agent_tti`` from inside an
    application, on a two-agent deployment 10 TTIs (one way) away."""

    def run(self):
        from repro.sim.simulation import Simulation
        master = MasterController(echo_period_ttis=20,
                                  liveness_timeout_ttis=60)
        sim = Simulation(master=master)
        app = NorthboundReader()
        master.add_app(app)
        for _ in range(2):
            sim.add_agent(sim.add_enb(), rtt_ms=20)
        sim.connections[2].partition(100, 250)
        sim.run(300)
        return app, master

    def test_estimate_lags_by_the_one_way_delay(self):
        app, master = self.run()
        # Until the first sync message (enabled at 30, there at 40,
        # its first trigger back at 51) there is nothing to age: now.
        assert [est for _, est in app.seen[50].values()] == [50, 50]
        # Synced: the agent was at `now - 10` when it sent what has
        # just arrived; a partitioned agent's estimate keeps ageing.
        for tti in (51, 99, 150, 299):
            assert [est for _, est in app.seen[tti].values()] == [
                tti - 10, tti - 10]

    def test_liveness_follows_a_partition(self):
        app, master = self.run()
        changes = {1: [], 2: []}
        for tti in range(52, 300):
            for agent_id, (liveness, _) in app.seen[tti].items():
                if app.seen[tti - 1][agent_id][0] is not liveness:
                    changes[agent_id].append((tti, liveness))
        # Agent 2's last frame before the partition arrives at TTI 99:
        # stale 20 TTIs later, dead at 60, active again when the first
        # frame sent after the partition lands (250 + 10).
        assert changes == {1: [], 2: [(119, AgentLiveness.STALE),
                                      (159, AgentLiveness.DEAD),
                                      (260, AgentLiveness.ACTIVE)]}
        assert changes[2] == master.rib.agent(2).liveness_history[-3:]
        assert app.seen[200][1][0] is AgentLiveness.ACTIVE


class TestUplinkRemoteScheduling:
    def test_ul_command_roundtrip(self):
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        rnti = enb.attach_ue(Ue("001", FixedCqi(12)), tti=0)
        agent.mac.activate("ul_scheduling", "remote_stub_ul")
        for t in range(15):
            enb.tick(t)  # let random access complete (UE schedulable)
        conn.master_side.send(UlMacCommand(
            cell_id=enb.cell().cell_id, target_tti=20,
            grants=[DciSpec(rnti=rnti, n_prb=50, cqi_used=12)]), now=15)
        agent.tick_rx(15)
        assert agent.mac.remote_ul_stub.stats.expired_on_arrival == 0
        # The stored grant applies exactly at its target TTI.
        ctx = enb.build_context(enb.cell().cell_id, 20)
        grants = agent.mac.remote_ul_stub(ctx)
        assert len(grants) == 1 and grants[0].n_prb == 50

    def test_centralized_uplink_throughput(self):
        sc = centralized_scheduling(ues_per_enb=1, cqi=15)
        sc.app.schedule_uplink = True
        ue = sc.ues_per_enb[0][0]
        sc.sim.add_uplink_traffic(sc.enbs[0], ue,
                                  SaturatingSource(start_tti=50))
        sc.sim.run(3000)
        assert (sc.agents[0].mac.active_name("ul_scheduling")
                == "remote_stub_ul")
        ul_mbps = sc.enbs[0].counters.ul_delivered_bytes * 8 / (3000 * 1000)
        assert ul_mbps == pytest.approx(
            capacity_mbps(15, 50, uplink=True), rel=0.1)

    def test_ul_stub_without_decision_grants_nothing(self):
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb)
        rnti = enb.attach_ue(Ue("001", FixedCqi(12)), tti=0)
        enb.ue(rnti).generate_ul(10_000)
        agent.mac.activate("ul_scheduling", "remote_stub_ul")
        for t in range(200):
            enb.tick(t)
        assert enb.counters.ul_delivered_bytes == 0
        assert agent.mac.remote_ul_stub.stats.missed_ttis > 0
