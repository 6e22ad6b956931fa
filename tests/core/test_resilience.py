"""Tests for control-plane resilience: the agent's connection
supervisor, local fallback, reconnect backoff and RIB liveness."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.connection import (
    ConnectionConfig,
    ConnectionState,
    ConnectionSupervisor,
)
from repro.core.controller import MasterController
from repro.core.controller.rib import AgentLiveness
from repro.lte.enodeb import EnodeB
from repro.net.transport import ControlConnection
from repro.sim.scenarios import FaultSpec, partitioned_centralized

CFG = dict(keepalive_period_ttis=20, disconnect_timeout_ttis=60,
           reconnect_backoff_ttis=10, reconnect_backoff_cap_ttis=40)


class TestSupervisor:
    def test_dormant_until_first_message(self):
        events = []
        sup = ConnectionSupervisor(
            ConnectionConfig(**CFG),
            on_disconnect=lambda t: events.append(("down", t)))
        # Nothing heard ever: the supervisor never declares a loss.
        for t in range(500):
            assert sup.before_tx(t)
        assert events == []

    def test_timeout_disconnects_and_suppresses_tx(self):
        events = []
        sup = ConnectionSupervisor(
            ConnectionConfig(**CFG),
            on_disconnect=lambda t: events.append(("down", t)))
        sup.heard(10)
        assert sup.before_tx(50)
        assert not sup.before_tx(70)  # 60 TTIs of silence
        assert sup.state is ConnectionState.DISCONNECTED
        assert events == [("down", 70)]
        assert sup.stats.disconnects == 1
        assert not sup.before_tx(71)

    def test_keepalive_probes_on_silence(self):
        probes = []
        sup = ConnectionSupervisor(
            ConnectionConfig(**CFG), send_keepalive=probes.append)
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

    def test_reconnect_backoff_doubles_and_caps(self):
        probes = []
        sup = ConnectionSupervisor(
            ConnectionConfig(**CFG), send_reconnect_probe=probes.append)
        sup.heard(0)
        for t in range(1, 300):
            sup.before_tx(t)
        assert sup.state is ConnectionState.DISCONNECTED
        # Disconnected at 60; probes at 70, then 10*2=20 later, then 40,
        # then capped at 40: 70, 90, 130, 170, 210, 250, 290.
        assert probes == [70, 90, 130, 170, 210, 250, 290]

    def test_reconnect_intervals_double_to_the_cap(self):
        probes = []
        sup = ConnectionSupervisor(
            ConnectionConfig(), send_reconnect_probe=probes.append)
        sup.heard(0)
        t = 0
        while len(probes) < 13:
            t += 1
            sup.before_tx(t)
        # The first probe comes one initial backoff after the outage;
        # each after it waits twice the last, up to the cap.
        assert [b - a for a, b in zip(probes, probes[1:])] == [
            min(50 * 2 ** k, 800) for k in range(1, 13)]

    def test_reconnect_restores_and_resets_backoff(self):
        ups, downs = [], []
        sup = ConnectionSupervisor(
            ConnectionConfig(**CFG),
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
        with pytest.raises(ValueError):
            ConnectionConfig(keepalive_period_ttis=0)
        with pytest.raises(ValueError):
            ConnectionConfig(keepalive_period_ttis=100,
                             disconnect_timeout_ttis=100)
        with pytest.raises(ValueError):
            ConnectionConfig(reconnect_backoff_ttis=0)
        with pytest.raises(ValueError):
            ConnectionConfig(reconnect_backoff_ttis=50,
                             reconnect_backoff_cap_ttis=20)


class TestAgentFallback:
    def build(self):
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side,
                             connection_config=ConnectionConfig(**CFG))
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
    def test_partition_fallback_reconnect_and_rib_states(self):
        cfg = ConnectionConfig(keepalive_period_ttis=50,
                               disconnect_timeout_ttis=150,
                               reconnect_backoff_ttis=25,
                               reconnect_backoff_cap_ttis=100)
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(partitions=[(1000, 1600)]),
            connection_config=cfg,
            echo_period_ttis=100, liveness_timeout_ttis=2000,
            stale_after_ttis=200)
        sc.sim.run(3000)
        agent = sc.agents[0]
        sup = agent.connection

        # The agent flipped to local control within its timeout window
        # and reconnected (with at least one backoff probe) after heal.
        states = [s for _, s in sup.transitions]
        assert states == [ConnectionState.DISCONNECTED,
                          ConnectionState.CONNECTED]
        down_tti, up_tti = (t for t, _ in sup.transitions)
        assert 1000 < down_tti <= 1000 + cfg.disconnect_timeout_ttis + 1
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

    def test_partition_to_dead_and_reattach(self):
        cfg = ConnectionConfig(keepalive_period_ttis=50,
                               disconnect_timeout_ttis=150,
                               reconnect_backoff_ttis=25,
                               reconnect_backoff_cap_ttis=100)
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(partitions=[(1000, 2000)]),
            connection_config=cfg,
            echo_period_ttis=100, liveness_timeout_ttis=400,
            stale_after_ttis=100)
        sc.sim.run(3000)
        node = sc.sim.master.rib.agent(sc.agents[0].agent_id)
        seen = [s for _, s in node.liveness_history]
        assert seen == [AgentLiveness.STALE, AgentLiveness.DEAD,
                        AgentLiveness.ACTIVE]
        assert sc.sim.master.agents_declared_dead == 1
        assert sc.sim.master.agent_reattaches == 1

    def test_lossy_link_survives_without_disconnect(self):
        """Moderate random loss never silences the channel long enough
        to disconnect -- keepalives and retried traffic get through."""
        sc = partitioned_centralized(
            ues_per_enb=2, rtt_ms=2.0, schedule_ahead=4,
            fault=FaultSpec(loss=0.2),
            echo_period_ttis=100, liveness_timeout_ttis=1500)
        sc.sim.run(2000)
        agent = sc.agents[0]
        assert agent.connection.state is ConnectionState.CONNECTED
        assert agent.connection.stats.disconnects == 0
        conn = sc.sim.connections[agent.agent_id]
        assert sum(link.dropped_messages for link in conn.channel.links) > 0


class TestRibGarbageCollection:
    def test_dead_detached_agent_removed(self):
        master = MasterController(echo_period_ttis=100,
                                  liveness_timeout_ttis=300,
                                  dead_gc_ttis=600)
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

    def test_connected_dead_agent_kept_for_resync(self):
        master = MasterController(echo_period_ttis=100,
                                  liveness_timeout_ttis=300,
                                  dead_gc_ttis=600)
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
        with pytest.raises(ValueError):
            MasterController(echo_period_ttis=100,
                             liveness_timeout_ttis=300,
                             stale_after_ttis=300)
        with pytest.raises(ValueError):
            MasterController(echo_period_ttis=100,
                             liveness_timeout_ttis=300,
                             dead_gc_ttis=200)
