"""When the master asks an agent for its UE list.

A ``"ues"``-scoped ``ConfigRequest`` re-reads every UE of the agent,
so the master sends one only for what its RIB lacks: an arrival event
(``UE_ATTACH``, ``HANDOVER_COMPLETE``) naming an RNTI it does not hold
with its configuration, and every ``ATTACH_FAILED``, whose
authoritative reply is how departed UEs leave the RIB.  One request
per (agent, TTI) covers any number of such events.
"""

from repro.core.controller import MasterController
from repro.core.controller.rib_updater import RibUpdater
from repro.core.protocol.messages import (
    CellConfigRep,
    ConfigReply,
    ConfigRequest,
    EventNotification,
    EventType,
    StatsReply,
    UeConfigRep,
    UeStatsReport,
)
from repro.net.transport import ControlConnection
from repro.sim import scenarios

AGENT, CELL, HELD = 1, 10, 70


def _event(kind, rnti, cell_id=CELL):
    return EventNotification(event_type=int(kind), rnti=rnti,
                             cell_id=cell_id)


def _ue_reply(*rntis):
    return ConfigReply(ues=[UeConfigRep(rnti=r, imsi=f"{r:03d}",
                                        cell_id=CELL) for r in rntis])


class Wired:
    """A master and the agent end of its one connection, driven by hand:
    :meth:`deliver` sends agent messages at TTI *now*, ticks the master
    and returns the ``ConfigRequest`` s it answered with."""

    def __init__(self):
        self.master = MasterController()
        self.conn = ControlConnection()
        self.master.connect_agent(AGENT, self.conn.master_side)
        self.now = 0
        # The agent's configuration, as a Hello's "enb" reply brings it.
        reply = _ue_reply(HELD)
        reply.cells = [CellConfigRep(cell_id=CELL)]
        assert self.deliver(reply) == []

    def deliver(self, *messages):
        for message in messages:
            self.conn.agent_side.send(message, now=self.now)
        self.master.tick(self.now)
        answered = self.conn.agent_side.receive(now=self.now)
        self.now += 1
        return [m for m in answered if isinstance(m, ConfigRequest)]

    def ues(self):
        return sorted(self.master.rib.agent(AGENT).cells[CELL].ues)


class TestTheRequestRule:
    def test_an_arrival_the_rib_holds_configured_asks_for_nothing(self):
        wired = Wired()
        assert wired.deliver(_event(EventType.UE_ATTACH, HELD)) == []
        assert wired.deliver(
            _event(EventType.HANDOVER_COMPLETE, HELD)) == []

    def test_an_unknown_rnti_asks_for_the_ue_list(self):
        wired = Wired()
        (request,) = wired.deliver(_event(EventType.UE_ATTACH, 71))
        assert request.scope == "ues"
        (request,) = wired.deliver(_event(EventType.HANDOVER_COMPLETE, 72))
        assert request.scope == "ues"

    def test_an_rnti_held_under_another_cell_asks(self):
        wired = Wired()
        assert len(wired.deliver(
            _event(EventType.UE_ATTACH, HELD, cell_id=11))) == 1

    def test_a_node_without_config_asks(self):
        wired = Wired()
        # A stats report creates the node, but no configuration.
        assert wired.deliver(StatsReply(
            ue_reports=[UeStatsReport(rnti=71)])) == []
        assert wired.ues() == [HELD, 71]
        assert len(wired.deliver(_event(EventType.UE_ATTACH, 71))) == 1

    def test_a_failed_attach_always_asks_and_its_reply_drops_the_ue(self):
        wired = Wired()
        (request,) = wired.deliver(_event(EventType.ATTACH_FAILED, HELD))
        assert request.scope == "ues"
        assert wired.ues() == [HELD]
        # The agent's authoritative answer no longer lists the UE.
        assert wired.deliver(_ue_reply()) == []
        assert wired.ues() == []

    def test_a_burst_of_unknown_rntis_in_one_tti_asks_once(self):
        wired = Wired()
        burst = [_event(EventType.HANDOVER_COMPLETE, r) for r in range(71, 81)]
        assert len(wired.deliver(*burst)) == 1
        assert len(wired.deliver(_event(EventType.UE_ATTACH, 81))) == 1

    def test_departures_are_learned_at_the_next_reply(self):
        wired = Wired()
        (_,) = wired.deliver(_event(EventType.UE_ATTACH, 71))
        assert wired.deliver(_ue_reply(71)) == []
        assert wired.ues() == [71]


def test_an_attach_storm_reads_each_ue_once():
    """The exact ceiling: over a scale deployment's warm-up, the UE
    records of every ``ConfigReply`` the master applies number the UEs,
    one per agent Hello's reply, however many attach events arrive."""
    sc = scenarios.large_scale(n_enbs=4, ues_per_enb=16)
    updater = sc.sim.master.updater
    applied = []

    def counting(agent, message, now):
        applied.append(len(message.ues))
        RibUpdater._apply_config(updater, agent, message, now)

    updater._apply_config = counting
    sc.sim.run(150)
    assert sc.sim.master.rib.ue_count() == len(sc.ues) == 64
    assert sum(applied) == len(sc.ues), applied
