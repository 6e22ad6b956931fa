"""Tests for control-plane resilience: the agent's connection
supervisor, local fallback, reconnect backoff and RIB liveness."""

import pytest

from repro.core.agent import FlexRanAgent, connection
from repro.core.agent.connection import ConnectionState, ConnectionSupervisor
from repro.core.controller import MasterController
from repro.core.controller import master as master_module
from repro.core.controller.rib import AgentLiveness
from repro.lte.enodeb import EnodeB
from repro.net.transport import ControlConnection
from repro.sim.scenarios import FaultSpec, partitioned_centralized


def tune(monkeypatch, module, **constants):
    """Run a test at other values of *module*'s timing constants."""
    for name, value in constants.items():
        monkeypatch.setattr(module, name, value)


@pytest.fixture
def fast_agent(monkeypatch):
    """An agent supervisor on a 20-TTI keepalive, 60-TTI disconnect
    timeout and 10-TTI first backoff, capped at 40."""
    tune(monkeypatch, connection, KEEPALIVE_PERIOD_TTIS=20,
         DISCONNECT_TIMEOUT_TTIS=60, RECONNECT_BACKOFF_TTIS=10,
         RECONNECT_BACKOFF_CAP_TTIS=40)


def partition_timing(monkeypatch, **master_constants):
    """The partition runs' agents: 50-TTI keepalive, 150-TTI timeout,
    backoff from 25 capped at 100; and the master's *master_constants*."""
    tune(monkeypatch, connection, KEEPALIVE_PERIOD_TTIS=50,
         DISCONNECT_TIMEOUT_TTIS=150, RECONNECT_BACKOFF_TTIS=25,
         RECONNECT_BACKOFF_CAP_TTIS=100)
    tune(monkeypatch, master_module, **master_constants)


class TestSupervisor:
    def test_dormant_until_first_message(self, fast_agent):
        events = []
        sup = ConnectionSupervisor(
            on_disconnect=lambda t: events.append(("down", t)))
        # Nothing heard ever: the supervisor never declares a loss.
        for t in range(500):
            assert sup.before_tx(t)
        assert events == []

    def test_timeout_disconnects_and_suppresses_tx(self, fast_agent):
        events = []
        sup = ConnectionSupervisor(
            on_disconnect=lambda t: events.append(("down", t)))
        sup.heard(10)
        assert sup.before_tx(50)
        assert not sup.before_tx(70)  # 60 TTIs of silence
        assert sup.state is ConnectionState.DISCONNECTED
        assert events == [("down", 70)]
        assert sup.stats.disconnects == 1
        assert not sup.before_tx(71)

    def test_keepalive_probes_on_silence(self, fast_agent):
        probes = []
        sup = ConnectionSupervisor(
            send_keepalive=probes.append)
        sup.heard(0)
        for t in range(1, 60):
            sup.before_tx(t)
            if t % 3 == 0:
                sup.heard(t)  # regular traffic: no probes needed
        assert probes == []
        sup.heard(100)
        for t in range(101, 150):
            sup.before_tx(t)
        # Silence from 100: probes at 120 and 140 (period 20).
        assert probes == [120, 140]

    def test_reconnect_backoff_doubles_and_caps(self, fast_agent):
        probes = []
        sup = ConnectionSupervisor(
            send_reconnect_probe=probes.append)
        sup.heard(0)
        for t in range(1, 300):
            sup.before_tx(t)
        assert sup.state is ConnectionState.DISCONNECTED
        # Disconnected at 60; probes at 70, then 10*2=20 later, then 40,
        # then capped at 40: 70, 90, 130, 170, 210, 250, 290.
        assert probes == [70, 90, 130, 170, 210, 250, 290]

    def test_reconnect_intervals_double_to_the_cap(self):
        """The shipped backoff: 50 TTIs, doubled up to 800."""
        probes = []
        sup = ConnectionSupervisor(send_reconnect_probe=probes.append)
        sup.heard(0)
        t = 0
        while len(probes) < 13:
            t += 1
            sup.before_tx(t)
        # The first probe comes one initial backoff after the outage;
        # each after it waits twice the last, up to the cap.
        assert [b - a for a, b in zip(probes, probes[1:])] == [
            min(50 * 2 ** k, 800) for k in range(1, 13)]

    def test_reconnect_restores_and_resets_backoff(self, fast_agent):
        ups, downs = [], []
        sup = ConnectionSupervisor(
            on_disconnect=downs.append, on_reconnect=ups.append)
        sup.heard(0)
        for t in range(1, 100):
            sup.before_tx(t)
        assert downs == [60]
        sup.heard(100)
        assert sup.state is ConnectionState.CONNECTED
        assert ups == [100]
        assert sup.stats.reconnects == 1
        # The next outage starts from the initial backoff again.
        for t in range(101, 200):
            sup.before_tx(t)
        assert downs == [60, 160]

    def test_config_validation(self):
        # The orderings the state machine relies on.
        assert 0 < connection.KEEPALIVE_PERIOD_TTIS < (
            connection.DISCONNECT_TIMEOUT_TTIS)
        assert 0 < connection.RECONNECT_BACKOFF_TTIS <= (
            connection.RECONNECT_BACKOFF_CAP_TTIS)


@pytest.mark.usefixtures("fast_agent")
class TestAgentFallback:
    def build(self):
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        return enb, agent, conn

    def test_remote_stub_swapped_for_fallback_on_loss(self):
        enb, agent, conn = self.build()
        agent.mac.activate("dl_scheduling", "remote_stub")
        agent.mac.activate("ul_scheduling", "remote_stub_ul")
        from repro.core.protocol.messages import EchoReply
        conn.master_side.send(EchoReply(), now=0)
        agent.tick_rx(0)  # arms the supervisor
        for t in range(1, 80):
            agent.tick_tx(t)
        assert agent.connection.state is not ConnectionState.CONNECTED
        assert agent.mac.active_name("dl_scheduling") == "local_rr"
        assert agent.mac.active_name("ul_scheduling") == "local_fair_ul"

    def test_local_vsf_untouched_on_loss(self):
        enb, agent, conn = self.build()
        agent.mac.activate("dl_scheduling", "local_pf")
        from repro.core.protocol.messages import EchoReply
        conn.master_side.send(EchoReply(), now=0)
        agent.tick_rx(0)
        for t in range(1, 80):
            agent.tick_tx(t)
        assert agent.mac.active_name("dl_scheduling") == "local_pf"

    def test_reconnect_restores_remote_stub_and_rehellos(self):
        enb, agent, conn = self.build()
        agent.mac.activate("dl_scheduling", "remote_stub")
        from repro.core.protocol.messages import EchoReply, Hello
        conn.master_side.send(EchoReply(), now=0)
        agent.tick_rx(0)
        agent.tick_tx(0)
        conn.master_side.receive(now=0)  # consume the initial hello
        for t in range(1, 80):
            agent.tick_tx(t)
        assert agent.mac.active_name("dl_scheduling") == "local_rr"
        # Master answers one of the reconnect probes.
        conn.master_side.send(EchoReply(), now=80)
        agent.tick_rx(80)
        assert agent.connection.state is ConnectionState.CONNECTED
        assert agent.mac.active_name("dl_scheduling") == "remote_stub"
        agent.tick_tx(81)
        hellos = [m for m in conn.master_side.receive(now=81)
                  if isinstance(m, Hello)]
        assert hellos  # the agent re-announced itself


class TestPartitionIntegration:
    def test_partition_fallback_reconnect_and_rib_states(self, monkeypatch):
        partition_timing(monkeypatch, ECHO_PERIOD_TTIS=100,
                         LIVENESS_TIMEOUT_TTIS=2000, STALE_AFTER_TTIS=200)
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(partitions=[(1000, 1600)]))
        sc.sim.run(3000)
        agent = sc.agents[0]
        sup = agent.connection

        # The agent flipped to local control within its timeout window
        # and reconnected (with at least one backoff probe) after heal.
        states = [s for _, s in sup.transitions]
        assert states == [ConnectionState.DISCONNECTED,
                          ConnectionState.CONNECTED]
        down_tti, up_tti = (t for t, _ in sup.transitions)
        assert 1000 < down_tti <= 1000 + connection.DISCONNECT_TIMEOUT_TTIS + 1
        assert up_tti >= 1600
        assert sup.stats.reconnect_attempts >= 1
        assert agent.mac.active_name("dl_scheduling") == "remote_stub"

        # RIB liveness: ACTIVE -> STALE -> ACTIVE (window shorter than
        # the master's liveness timeout, so never DEAD).
        node = sc.sim.master.rib.agent(agent.agent_id)
        assert node.liveness is AgentLiveness.ACTIVE
        seen = [s for _, s in node.liveness_history]
        assert seen == [AgentLiveness.STALE, AgentLiveness.ACTIVE]
        assert sc.sim.master.agents_declared_dead == 0

    def test_partition_to_dead_and_reattach(self, monkeypatch):
        partition_timing(monkeypatch, ECHO_PERIOD_TTIS=100,
                         LIVENESS_TIMEOUT_TTIS=400, STALE_AFTER_TTIS=100)
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(partitions=[(1000, 2000)]))
        sc.sim.run(3000)
        node = sc.sim.master.rib.agent(sc.agents[0].agent_id)
        seen = [s for _, s in node.liveness_history]
        assert seen == [AgentLiveness.STALE, AgentLiveness.DEAD,
                        AgentLiveness.ACTIVE]
        assert sc.sim.master.agents_declared_dead == 1
        assert sc.sim.master.agent_reattaches == 1

    def test_lossy_link_survives_without_disconnect(self, monkeypatch):
        """Moderate random loss never silences the channel long enough
        to disconnect -- keepalives and retried traffic get through."""
        tune(monkeypatch, master_module, ECHO_PERIOD_TTIS=100,
             STALE_AFTER_TTIS=100)
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(loss=0.2))
        sc.sim.run(2000)
        agent = sc.agents[0]
        assert agent.connection.state is ConnectionState.CONNECTED
        assert agent.connection.stats.disconnects == 0
        conn = sc.sim.connections[agent.agent_id]
        assert sum(link.dropped_messages for link in conn.channel.links) > 0


class TestRibGarbageCollection:
    def test_dead_detached_agent_removed(self, monkeypatch):
        tune(monkeypatch, master_module, ECHO_PERIOD_TTIS=100,
             STALE_AFTER_TTIS=100, LIVENESS_TIMEOUT_TTIS=300,
             DEAD_GC_TTIS=600)
        master = MasterController()
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        master.connect_agent(1, conn.master_side)
        for t in range(20):
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
        assert master.rib.agent_ids() == [1]
        # The agent dies and its connection is torn down.
        for t in range(20, 400):
            master.tick(t)
        assert master.rib.agent(1).liveness is AgentLiveness.DEAD
        master.disconnect_agent(1)
        for t in range(400, 1000):
            master.tick(t)
        assert master.rib.agent_ids() == []
        assert master.agents_garbage_collected == 1

    def test_connected_dead_agent_kept_for_resync(self, monkeypatch):
        tune(monkeypatch, master_module, ECHO_PERIOD_TTIS=100,
             STALE_AFTER_TTIS=100, LIVENESS_TIMEOUT_TTIS=300,
             DEAD_GC_TTIS=600)
        master = MasterController()
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        master.connect_agent(1, conn.master_side)
        for t in range(20):
            agent.tick_tx(t)
            master.tick(t)
            agent.tick_rx(t)
        for t in range(20, 2000):
            master.tick(t)
        # Still connected (endpoint present): the subtree is retained.
        assert master.rib.agent_ids() == [1]

    def test_invalid_thresholds(self):
        # An agent is probed before it goes stale, stale before dead,
        # and collected only once dead.
        m = master_module
        assert 0 < m.ECHO_PERIOD_TTIS < m.LIVENESS_TIMEOUT_TTIS
        assert 0 < m.STALE_AFTER_TTIS < m.LIVENESS_TIMEOUT_TTIS
        assert m.LIVENESS_TIMEOUT_TTIS <= m.DEAD_GC_TTIS
