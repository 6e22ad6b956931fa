"""The record-level stats path: one pass per report TTI.

``ReportsManager.due_replies`` makes one ``collect_ue_stats`` pass over
an agent's UEs per report TTI; the API observes each channel once,
rebuilds a record only when the data plane changed the UE, copies it
when only the channel moved, and retains records only where that can
happen.  These tests pin what must hold whatever the pass does inside:

* the *exactness oracle* -- every reply, merged into a shadow map the
  way the master's RIB merges it, equals a fresh full snapshot field
  for field (it uses only ``due_replies`` and ``get_ue_stats(now)``, so
  it pins behaviour that predates the pass);
* a published record never changes afterwards;
* a channel-only change is visible to reports and not to the scheduler;
* subscriptions due on the same TTI share one pass and each gets
  exactly the UEs changed since its own watermark;
* retained state follows the UE: gone after a detach or a handover,
  rebuilt for a re-used RNTI, and never kept for a static channel.
"""

import copy
from dataclasses import fields

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.protocol.messages import (
    Header,
    ReportType,
    StatsFlags,
    StatsRequest,
    UeStatsReport,
)
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi, GaussMarkovSinr, TraceCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, PoissonSource
from tests.sim import context_oracle

UE_FIELDS = tuple(f.name for f in fields(UeStatsReport))
PERIOD = 5


def fading(index):
    return GaussMarkovSinr(8.0 + index % 7, sigma_db=3.0, seed=100 + index)


def build(*, churn, n_enbs=2, ues_per_enb=16):
    """A small scale_churn (fading, Poisson, PF) or scale_steady
    (fixed CQI, CBR, round robin) deployment, subscribed like
    ``large_scale``; agent 0 carries a second, slower subscription."""
    sim = Simulation(with_master=True, realtime_master=False)
    agents = []
    for e in range(n_enbs):
        enb = sim.add_enb(seed=e)
        agent = sim.add_agent(enb, rtt_ms=2.0)
        if churn:
            agent.mac.activate("dl_scheduling", "local_pf")
        for i in range(ues_per_enb):
            index = e * ues_per_enb + i
            ue = Ue(f"{e:02d}{i:04d}",
                    fading(index) if churn else FixedCqi(4 + i % 10))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(
                enb, ue,
                PoissonSource(1.5, seed=index, start_tti=20) if churn
                else CbrSource(1.5, start_tti=20, phase=(0.618 * index) % 1))
        agents.append(agent)
    for agent in agents:
        sim.master.northbound.request_stats(
            agent.agent_id, report_type=ReportType.PERIODIC,
            period_ttis=PERIOD)
    sim.master.northbound.request_stats(
        agents[0].agent_id, report_type=ReportType.PERIODIC,
        period_ttis=PERIOD + 2)
    return sim, agents


def tap_replies(agent, monkeypatch, after):
    """Call ``after(now, replies)`` after every ``due_replies`` call."""
    original = agent.reports.due_replies

    def due_replies(now):
        replies = original(now)
        after(now, replies)
        return replies
    monkeypatch.setattr(agent.reports, "due_replies", due_replies)


class TestExactnessOracle:
    @pytest.mark.parametrize("churn", [True, False],
                             ids=["fading_poisson_pf", "fixed_cbr_rr"])
    def test_merged_replies_equal_a_fresh_snapshot(self, churn, monkeypatch):
        sim, agents = build(churn=churn)
        compared = 0
        deltas = 0
        mismatches = []

        def check(agent):
            shadows = {}  # xid -> {rnti: record}, one RIB view per stream

            def after(now, replies):
                nonlocal compared, deltas
                for reply in replies:
                    shadow = shadows.setdefault(reply.header.xid, {})
                    if reply.full == 1:
                        shadow.clear()
                    else:
                        deltas += 1
                    for record in reply.ue_reports:
                        shadow[record.rnti] = record
                    fresh = {r.rnti: r for r in agent.api.get_ue_stats(now)}
                    if sorted(shadow) != sorted(fresh):
                        mismatches.append(
                            f"tti {now} agent {agent.agent_id}: reported "
                            f"{sorted(shadow)}, attached {sorted(fresh)}")
                        continue
                    for rnti, want in fresh.items():
                        compared += 1
                        for name in UE_FIELDS:
                            got = getattr(shadow[rnti], name)
                            if got != getattr(want, name):
                                mismatches.append(
                                    f"tti {now} agent {agent.agent_id} "
                                    f"UE {rnti} {name}: reported {got!r}, "
                                    f"snapshot {getattr(want, name)!r}")
            tap_replies(agent, monkeypatch, after)

        for agent in agents:
            check(agent)
        try:
            sim.run(600)
        finally:
            sim.close()
        assert not mismatches, "\n".join(mismatches[:10])
        assert compared > 3000 and deltas > 200

    def test_builder_lists_every_wire_field_in_order(self):
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb)
        enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        (record,) = agent.api.get_ue_stats(0)
        assert tuple(record.__dict__) == UE_FIELDS
        assert UE_FIELDS == tuple(name for name, _ in UeStatsReport.FIELDS)
        assert record == UeStatsReport(**record.__dict__)


class TestPublishedRecordsAreImmutable:
    def test_replies_are_unchanged_ten_periods_later(self, monkeypatch):
        sim, agents = build(churn=True)
        held = []  # (published at, the reply, its deep copy then)
        checked = 0
        mutated = []

        def after(now, replies):
            nonlocal checked
            for reply in replies:
                held.append((now, reply, copy.deepcopy(reply)))
            while held and held[0][0] <= now - 10 * PERIOD:
                published, reply, snapshot = held.pop(0)
                if reply != snapshot:
                    mutated.append((published, reply.header.agent_id))
                checked += len(reply.ue_reports)

        for agent in agents:
            tap_replies(agent, monkeypatch, after)
        try:
            sim.run(400)
        finally:
            sim.close()
        assert not mutated
        assert checked > 1000


def lone_agent(channel, *, agent_id=17):
    # Agent id 17: the staggered full refresh lands on reply #17.
    enb = EnodeB(agent_id)
    agent = FlexRanAgent(agent_id, enb)
    rnti = enb.attach_ue(Ue("001", channel), tti=0)
    for t in range(30):
        enb.tick(t)
    return enb, agent, rnti


def subscribe(reports, *, xid=1, period=PERIOD, now=30,
              report_type=ReportType.PERIODIC):
    reports.register(
        StatsRequest(header=Header(xid=xid), report_type=int(report_type),
                     period_ttis=period, flags=int(StatsFlags.FULL)),
        now=now)


class TestChannelOnlyChanges:
    def test_idle_fading_ue_moves_reports_not_the_scheduler(self, monkeypatch):
        log = context_oracle.install(monkeypatch)
        enb, agent, rnti = lone_agent(GaussMarkovSinr(10.0, sigma_db=3.0,
                                                      seed=3))
        (cell_id,) = enb.cells
        subscribe(agent.reports)
        advanced = 0
        for t in range(30, 230):
            enb.tick(t)
            before = enb.change_seq
            replies = agent.reports.due_replies(t)
            if (t - 30) % PERIOD:
                assert not replies and enb.change_seq == before
                continue
            # Nothing is queued for this UE, so whatever moved the
            # sequence here was the channel -- and no view went stale.
            assert not enb._view_cache[cell_id]._dirty
            if enb.change_seq > before:
                advanced += 1
                assert [r.rnti for r in replies[0].ue_reports] == [rnti]
                assert replies[0].ue_reports[0].subband_sinr_db_x10[0] == \
                    int(round(enb.ue(rnti).measured_sinr_db(t) * 10))
        assert advanced > 30
        assert log.calls == 230 and not log.mismatches

    def test_channel_only_change_copies_the_record(self):
        trace = TraceCqi([(0, 9), (40, 11)])
        enb, agent, rnti = lone_agent(trace)
        subscribe(agent.reports)
        first = agent.reports.due_replies(30)[0].ue_reports[0]
        quiet = agent.reports.due_replies(35)[0]
        assert quiet.ue_reports == []
        moved = agent.reports.due_replies(40)[0].ue_reports[0]
        assert moved is not first
        assert moved.subband_sinr_db_x10 != first.subband_sinr_db_x10
        # Everything the data plane owns was carried over, not re-walked.
        assert moved.queues is first.queues
        assert moved.harq_states is first.harq_states
        # A data-plane change rebuilds.
        enb.enqueue_dl(rnti, 700, 43)
        rebuilt = agent.reports.due_replies(45)[0].ue_reports[0]
        assert rebuilt.queues is not moved.queues and rebuilt.queues
        assert rebuilt == agent.api.get_ue_stats(45)[0]


class TestTriggeredDigest:
    def test_neighbor_cqi_only_change_fires(self):
        enb = EnodeB(17)
        agent = FlexRanAgent(17, enb)
        ue = Ue("001", FixedCqi(9))
        ue.neighbor_channels = {99: TraceCqi([(0, 5), (40, 12)])}
        enb.attach_ue(ue, tti=0)
        for t in range(30):
            enb.tick(t)
        subscribe(agent.reports, report_type=ReportType.TRIGGERED)
        assert len(agent.reports.due_replies(30)) == 1
        for t in range(31, 40):
            assert agent.reports.due_replies(t) == []
        seq = enb.change_seq
        (reply,) = agent.reports.due_replies(40)
        assert enb.change_seq == seq + 1
        assert reply.full == 1
        assert reply.ue_reports[0].neighbor_cqi == {99: 12}
        assert agent.reports.due_replies(41) == []


class TestSharedPass:
    def test_subscriptions_share_one_pass_and_keep_their_watermarks(
            self, monkeypatch):
        enb = EnodeB(17)
        agent = FlexRanAgent(17, enb)
        rntis = [enb.attach_ue(Ue(f"{i:03d}", FixedCqi(11)), tti=0)
                 for i in range(4)]
        for t in range(30):
            enb.tick(t)
        passes = []
        collect = agent.api.collect_ue_stats
        monkeypatch.setattr(
            agent.api, "collect_ue_stats",
            lambda tti, since: passes.append((tti, since))
            or collect(tti, since))
        subscribe(agent.reports, xid=1, period=5)
        subscribe(agent.reports, xid=2, period=10)

        def replies_at(tti):
            return {r.header.xid: (r.full, [u.rnti for u in r.ue_reports])
                    for r in agent.reports.due_replies(tti)}

        assert replies_at(30) == {1: (1, rntis), 2: (1, rntis)}
        enb.enqueue_dl(rntis[1], 700, 33)
        assert replies_at(35) == {1: (0, [rntis[1]])}
        enb.enqueue_dl(rntis[2], 700, 37)
        # The slow stream has not seen UE 1's change yet; the fast has.
        assert replies_at(40) == {1: (0, [rntis[2]]),
                                  2: (0, [rntis[1], rntis[2]])}
        agent.reports.force_full()
        assert replies_at(45) == {1: (1, rntis)}
        enb.enqueue_dl(rntis[3], 700, 47)
        # One pass serves a full snapshot and a delta side by side.
        assert replies_at(50) == {1: (0, [rntis[3]]), 2: (1, rntis)}
        assert [tti for tti, _ in passes] == [30, 35, 40, 45, 50]
        assert [since for _, since in passes][0] == -1
        assert [since for _, since in passes][3:] == [-1, -1]
        assert all(since >= 0 for _, since in passes[1:3])


class TestRetainedStateFollowsTheUe:
    def test_static_channel_ues_retain_no_record(self):
        sim, agents = build(churn=False)
        try:
            sim.run(200)
        finally:
            sim.close()
        for agent in agents:
            rows = agent.api._rows
            assert sorted(rows) == agent.enb.rntis()
            assert all(row[3] is None for row in rows.values())

    def test_fading_ues_retain_their_last_record(self):
        sim, agents = build(churn=True)
        try:
            sim.run(200)
        finally:
            sim.close()
        for agent in agents:
            rows = agent.api._rows
            assert sorted(rows) == agent.enb.rntis()
            assert all(isinstance(row[3], UeStatsReport)
                       for row in rows.values())

    def test_reused_rnti_gets_a_fresh_record(self):
        enb, agent, rnti = lone_agent(GaussMarkovSinr(10.0, seed=1))
        subscribe(agent.reports)
        old = agent.reports.due_replies(30)[0].ue_reports[0]
        enb.detach_ue(rnti)
        enb._next_rnti = rnti  # what a restored snapshot can cause
        newcomer = Ue("002", GaussMarkovSinr(2.0, seed=2))
        assert enb.attach_ue(newcomer, tti=32) == rnti
        for t in range(32, 36):
            enb.tick(t)
        (record,) = agent.reports.due_replies(35)[0].ue_reports
        assert record is not old and record.queues is not old.queues
        assert record == agent.api.get_ue_stats(35)[0]
        assert agent.api._rows[rnti][3] is record

    def test_handover_drops_the_source_row_and_reobserves(self):
        sim = Simulation(with_master=True, realtime_master=False)
        enb_a, enb_b = sim.add_enb(1), sim.add_enb(2)
        agent_a, agent_b = sim.add_agent(enb_a), sim.add_agent(enb_b)
        cell_a, cell_b = enb_a.cell().cell_id, enb_b.cell().cell_id
        stayer = Ue("001", GaussMarkovSinr(12.0, seed=1))
        mover = Ue("002", FixedCqi(6))
        mover.neighbor_channels = {cell_b: FixedCqi(13)}
        sim.add_ue(enb_a, stayer)
        old_rnti = sim.add_ue(enb_a, mover)
        for agent in (agent_a, agent_b):
            sim.master.northbound.request_stats(
                agent.agent_id, report_type=ReportType.PERIODIC,
                period_ttis=PERIOD)
        try:
            sim.run(100)
            assert sorted(agent_a.api._rows) == enb_a.rntis()
            old_record = agent_a.api._rows[old_rnti][3]
            assert old_record.neighbor_cqi == {cell_b: 13}
            assert agent_a.rrc.execute_handover(
                old_rnti, cell_a, cell_b, sim.now)
            sim.run(2 * PERIOD)
        finally:
            sim.close()
        # The source forgot the departed RNTI; the target observed the
        # swapped-in channel and the swapped-out neighbor.
        assert sorted(agent_a.api._rows) == [stayer.rnti]
        record = agent_b.api._rows[mover.rnti][3]
        assert record.neighbor_cqi == {cell_a: 6}
        assert record.subband_sinr_db_x10 != old_record.subband_sinr_db_x10
        assert record.wb_cqi == 13
