"""Tests for the RAN Information Base and its updater."""

import sys

import pytest

from repro.core.controller.rib import Rib
from repro.core.controller.rib_updater import RibUpdater
from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    ConfigReply,
    EventNotification,
    Hello,
    Header,
    StatsReply,
    SubframeTrigger,
    UeConfigRep,
    UeStatsReport,
)


@pytest.fixture
def rib():
    return Rib()


@pytest.fixture
def updater(rib):
    return RibUpdater(rib)


def hello(agent_id=1):
    return Hello(header=Header(agent_id=agent_id),
                 capabilities=["mac"], n_cells=1)


def config_reply(agent_id=1, rntis=(70,)):
    return ConfigReply(
        header=Header(agent_id=agent_id), enb_id=agent_id,
        cells=[CellConfigRep(cell_id=10, n_prb_dl=50)],
        ues=[UeConfigRep(rnti=r, imsi=f"{r}", cell_id=10) for r in rntis])


def stats_reply(agent_id=1, rntis=(70,), cqi=12, queue=1000):
    return StatsReply(
        header=Header(agent_id=agent_id),
        ue_reports=[UeStatsReport(rnti=r, queues={3: queue}, wb_cqi=cqi,
                                  wb_cqi_clear=cqi + 1) for r in rntis],
        cell_reports=[CellStatsReport(cell_id=10, n_prb=50,
                                      connected_ues=len(rntis))])


class TestForestStructure:
    def test_hello_creates_agent_root(self, rib, updater):
        updater.apply(1, hello(), now=5)
        agent = rib.agent(1)
        assert agent.capabilities == ["mac"]
        assert agent.connected_tti == 5

    def test_config_builds_cells_and_ues(self, rib, updater):
        updater.apply(1, config_reply(rntis=(70, 71)), now=0)
        agent = rib.agent(1)
        assert list(agent.cells) == [10]
        assert sorted(agent.cells[10].ues) == [70, 71]
        assert agent.enb_id == 1

    def test_stats_attach_to_ues(self, rib, updater):
        updater.apply(1, config_reply(), now=0)
        updater.apply(1, stats_reply(cqi=9), now=3)
        node = rib.agent(1).cells[10].ues[70]
        assert node.cqi == 9
        assert node.cqi_clear == 10
        assert node.queue_bytes == 1000
        assert node.stats_tti == 3

    def test_stats_create_ue_nodes_for_single_cell(self, rib, updater):
        # Stats may arrive before the UE config refresh.
        updater.apply(1, config_reply(rntis=()), now=0)
        updater.apply(1, stats_reply(rntis=(75,)), now=1)
        assert 75 in rib.agent(1).cells[10].ues

    def test_ue_scoped_config_removes_departed(self, rib, updater):
        updater.apply(1, config_reply(rntis=(70, 71)), now=0)
        gone = ConfigReply(header=Header(agent_id=1), enb_id=1, cells=[],
                           ues=[UeConfigRep(rnti=71, imsi="71", cell_id=10)])
        updater.apply(1, gone, now=5)
        assert sorted(rib.agent(1).cells[10].ues) == [71]

    def test_iteration_order_deterministic(self, rib, updater):
        updater.apply(2, config_reply(agent_id=2, rntis=(75, 71)), now=0)
        updater.apply(1, config_reply(agent_id=1, rntis=(72,)), now=0)
        order = [(a.agent_id, u.rnti) for a, _, u in rib.all_ues()]
        assert order == [(1, 72), (2, 71), (2, 75)]

    def test_unknown_agent_rejected(self, rib):
        with pytest.raises(KeyError):
            rib.agent(9)

    def test_memory_footprint_grows_with_content(self, rib, updater):
        empty = rib.memory_footprint_bytes()
        updater.apply(1, config_reply(rntis=tuple(range(70, 90))), now=0)
        updater.apply(1, stats_reply(rntis=tuple(range(70, 90))), now=1)
        assert rib.memory_footprint_bytes() > empty

    def test_a_records_lists_count_towards_the_footprint(self):
        """A stored record is slotted, so the walk must follow its slots
        into the containers it holds (Fig. 8's memory series)."""
        def footprint(harq_processes: int) -> int:
            rib = Rib()
            updater = RibUpdater(rib)
            updater.apply(1, config_reply(), now=0)
            reply = stats_reply()
            reply.ue_reports[0].harq_states = [1] * harq_processes
            updater.apply(1, reply, now=1)
            record = rib.agent(1).cells[10].ues[70].stats
            assert not hasattr(record, "__dict__")
            assert len(record.harq_states) == harq_processes
            return rib.memory_footprint_bytes()

        grown = sys.getsizeof([1] * 1000) - sys.getsizeof([])
        assert footprint(1000) - footprint(0) >= grown


class TestSubframeSync:
    def test_estimate_tracks_sync(self, rib, updater):
        updater.apply(1, SubframeTrigger(header=Header(agent_id=1, tti=100)),
                      now=110)
        agent = rib.agent(1)
        # Estimate = agent tti at send + elapsed since reception.
        assert agent.estimated_subframe(110) == 100
        assert agent.estimated_subframe(150) == 140

    def test_estimate_without_sync_falls_back_to_now(self, rib, updater):
        updater.apply(1, hello(), now=0)
        assert rib.agent(1).estimated_subframe(42) == 42


class TestEvents:
    def test_event_returned_for_notification_service(self, rib, updater):
        out = updater.apply(1, EventNotification(
            header=Header(agent_id=1, tti=7), event_type=0, rnti=70), now=8)
        assert len(out) == 1
        assert rib.agent(1).last_events == [(0, 70, 7)]

    def test_event_history_bounded(self, rib, updater):
        for i in range(100):
            updater.apply(1, EventNotification(
                header=Header(agent_id=1, tti=i), event_type=0, rnti=70),
                now=i)
        assert len(rib.agent(1).last_events) <= 32

    def test_counters(self, rib, updater):
        updater.apply(1, hello(), now=0)
        updater.apply(1, config_reply(), now=0)
        updater.apply(1, stats_reply(), now=1)
        updater.apply(1, SubframeTrigger(header=Header(agent_id=1)), now=1)
        assert updater.counters.messages == 4
        assert updater.counters.stats_replies == 1
        assert updater.counters.config_updates == 1
        assert updater.counters.sync_updates == 1
