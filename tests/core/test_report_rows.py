"""The record-level stats path: one pass per report TTI.

``ReportsManager.due_replies`` makes one ``collect_ue_stats`` pass per
report TTI over the UEs that changed or whose channel can move; the API
retains one record per UE and re-reads only the groups that a recorded
kind of change (``KIND_GROUPS``) or the channel observation moved.
These tests pin what must hold whatever the pass does inside:

* the *exactness oracle* -- every reply, merged into a shadow map the
  way the master's RIB merges it (the groups a record carries overlay
  the stored record), equals a fresh full snapshot field for field in
  every group the subscription asked for, and holds nothing in the
  others (it uses only ``due_replies`` and ``get_ue_stats(now)``);
* the *loss bound* -- drop one delta frame and the RIB is wrong about
  the groups it carried until the next staggered full refresh, and no
  longer;
* a published record never changes afterwards;
* a channel-only change is visible to reports and not to the scheduler;
* subscriptions due on the same TTI share one pass and each gets
  exactly the UEs changed since its own watermark;
* retained state follows the UE: gone after a detach or a handover,
  rebuilt for a re-used RNTI, one record per UE, shared with what a
  subscription holds as sent;
* each kind of change re-reads exactly the groups the table names, and
  the rest of the record is shared with its predecessor.
"""

import copy
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import FlexRanAgent
from repro.core.agent.api import KIND_GROUPS, AgentDataPlaneApi
from repro.core.agent.reports import FULL_REFRESH_REPLIES
from repro.core.protocol.messages import (
    Header,
    ReportType,
    StatsFlags,
    StatsReply,
    StatsRequest,
    UeStatsReport,
)
from repro.core.protocol.schema import wire_fields
from repro.lte.enodeb import CHANGE_KINDS, EnodeB
from repro.lte.mac.drx import DrxConfig
from repro.lte.mac.qos import QosProfile
from repro.lte.phy.channel import FixedCqi, FixedSinr, GaussMarkovSinr, TraceCqi
from repro.lte.rrc import RA_DELAY_TTIS
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, PoissonSource
from tests.core import schema_reference
from tests.sim import context_oracle

UE_FIELDS = tuple(f.name for f in fields(UeStatsReport))
PERIOD = 5
NARROW = int(StatsFlags.CQI | StatsFlags.RLC)
"""The flags of the narrow subscription ``build`` adds to agent 0."""


def reported_fields(flags):
    """Names of the fields a subscription with *flags* is sent (the
    mask itself aside), and of those it is not."""
    sent, unsent = [], []
    for name, kind, group in wire_fields(UeStatsReport):
        if kind != "mask":
            (sent if group is None or group & flags else unsent).append(name)
    return sent, unsent


def whole(record):
    """*record* with every group marked present: a delta record is the
    agent's whole record stamped with the groups that travel."""
    return replace(record, groups=UeStatsReport.ALL_GROUPS)


def fading(index):
    return GaussMarkovSinr(8.0 + index % 7, sigma_db=3.0, seed=100 + index)


def build(*, churn, n_enbs=2, ues_per_enb=16):
    """A small scale_churn (fading, Poisson, PF) or scale_steady
    (fixed CQI, CBR, round robin) deployment, subscribed like
    ``large_scale``; agent 0 also carries a second, slower full
    subscription and a faster one with narrow flags, so every stream
    has its own period, its own flags and its own predecessors."""
    sim = Simulation(with_master=True)
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
    sim.master.northbound.request_stats(
        agents[0].agent_id, report_type=ReportType.PERIODIC,
        period_ttis=PERIOD - 2, flags=NARROW)
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
        narrow = 0
        mismatches = []

        def check(agent):
            shadows = {}  # xid -> {rnti: record}, one RIB view per stream
            flags_of = {}

            def after(now, replies):
                nonlocal compared, deltas, narrow
                flags_of.update((sub.xid, sub.flags) for sub
                                in agent.reports._subscriptions.values())
                fresh = {r.rnti: r for r in agent.api.get_ue_stats(now)}
                for reply in replies:
                    shadow = shadows.setdefault(reply.header.xid, {})
                    flags = flags_of[reply.header.xid]
                    sent, unsent = reported_fields(flags)
                    if reply.full == 1:
                        shadow.clear()
                    else:
                        deltas += 1
                    for record in reply.ue_reports:
                        assert not record.groups & ~flags
                        assert reply.full == 0 or \
                            record.groups == flags & UeStatsReport.ALL_GROUPS
                        stored = shadow.get(record.rnti)
                        # By group, as the RIB does: what the wire
                        # carries of the record, over what is stored.
                        arrived = schema_reference.blank_absent_groups(record)
                        shadow[record.rnti] = (
                            arrived if stored is None
                            else schema_reference.merge(stored, arrived))
                    if sorted(shadow) != sorted(fresh):
                        mismatches.append(
                            f"tti {now} agent {agent.agent_id}: reported "
                            f"{sorted(shadow)}, attached {sorted(fresh)}")
                        continue
                    narrow += flags == NARROW
                    blank = UeStatsReport()
                    for rnti, want in fresh.items():
                        compared += 1
                        assert shadow[rnti].groups == \
                            flags & UeStatsReport.ALL_GROUPS
                        for name in sent:
                            got = getattr(shadow[rnti], name)
                            if got != getattr(want, name):
                                mismatches.append(
                                    f"tti {now} agent {agent.agent_id} "
                                    f"xid {reply.header.xid} "
                                    f"UE {rnti} {name}: reported {got!r}, "
                                    f"snapshot {getattr(want, name)!r}")
                        for name in unsent:
                            if getattr(shadow[rnti], name) != \
                                    getattr(blank, name):
                                mismatches.append(
                                    f"tti {now} UE {rnti} {name}: sent "
                                    f"to a subscription without its group")
            tap_replies(agent, monkeypatch, after)

        for agent in agents:
            check(agent)
        try:
            sim.run(600)
        finally:
            sim.close()
        assert not mismatches, "\n".join(mismatches[:10])
        assert compared > 3000 and deltas > 200 and narrow > 100

    def test_builder_lists_every_wire_field_in_order(self):
        enb = EnodeB(1)
        agent = FlexRanAgent(1, enb)
        enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
        (record,) = agent.api.get_ue_stats(0)
        # Slotted: no field can be added, and reading each one raises
        # if the builder left its slot unset.
        assert not hasattr(record, "__dict__")
        state = {name: getattr(record, name) for name in UE_FIELDS}
        assert UE_FIELDS == tuple(
            name for name, _, _ in wire_fields(UeStatsReport))
        assert record == UeStatsReport(**state)
        assert record.groups == UeStatsReport.ALL_GROUPS  # built whole


class TestLossBound:
    def test_a_dropped_delta_heals_by_the_next_full_refresh(self, monkeypatch):
        """Group deltas keep a rarely-changing group stale for longer
        after a loss than record deltas did: a UE's CQI steps once, the
        delta carrying it is dropped, and although the UE's queues keep
        arriving the master is wrong about its CQI until the staggered
        full refresh -- at most FULL_REFRESH_REPLIES x period TTIs
        later, which is the contract."""
        period = 2
        sim = Simulation(with_master=True)
        enb = sim.add_enb(17)   # agent 17: full refresh on replies 17, 81
        agent = sim.add_agent(enb, rtt_ms=0.0)
        stepper = Ue("001", TraceCqi([(0, 7), (60, 12)]))
        steady = Ue("002", FixedCqi(9))
        for ue in (stepper, steady):
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(0.5, start_tti=5))
        sim.master.northbound.request_stats(
            agent.agent_id, report_type=ReportType.PERIODIC,
            period_ttis=period)
        dropped = []
        send = agent._send

        def lossy_send(message, now):
            if (not dropped and isinstance(message, StatsReply)
                    and message.full == 0 and any(
                        r.rnti == stepper.rnti and r.groups & StatsFlags.CQI
                        and r.wb_cqi == 12 for r in message.ue_reports)):
                dropped.append(now)
                return
            send(message, now)
        monkeypatch.setattr(agent, "_send", lossy_send)

        last = {}       # the agent's whole records at its latest report TTI
        wrong = []      # report TTIs after which the RIB disagreed with them
        fulls = []

        def after(now, replies):
            if replies:
                last.update(tti=now, records={
                    r.rnti: r for r in agent.api.get_ue_stats(now)})
                fulls.extend(now for r in replies if r.full == 1)
        tap_replies(agent, monkeypatch, after)
        try:
            for _ in range((FULL_REFRESH_REPLIES + 50) * period):
                sim.run(1)
                if last.get("tti") == sim.now - 1:      # rtt 0: applied
                    node = sim.master.rib.agent(agent.agent_id)
                    if any(ue.stats != last["records"][ue.rnti]
                           for ue in node.all_ues()):
                        wrong.append(sim.now - 1)
        finally:
            sim.close()
        (lost_at,) = dropped
        healed_at = min(t for t in fulls if t > lost_at)
        assert healed_at - lost_at <= FULL_REFRESH_REPLIES * period
        # The loss was real and lasted: the queues kept flowing, the CQI
        # group did not change again, so nothing but the refresh fixed it.
        assert healed_at - lost_at > 10 * period
        assert wrong and min(wrong) == lost_at
        assert [t for t in wrong if t < healed_at] == list(
            range(lost_at, healed_at, period))
        assert not [t for t in wrong if t >= healed_at]


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
            assert not any(enb._view_cache[cell_id].dirty.values())
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
        # Everything the data plane owns was carried over, not re-walked
        # -- and is not sent either: the CQI group is all that differs.
        assert moved.queues is first.queues
        assert moved.harq_states is first.harq_states
        assert first.groups == UeStatsReport.ALL_GROUPS
        assert moved.groups == StatsFlags.CQI
        # A data-plane change rebuilds.
        enb.enqueue_dl(rnti, 700, 43)
        rebuilt = agent.reports.due_replies(45)[0].ue_reports[0]
        assert rebuilt.queues is not moved.queues and rebuilt.queues
        assert rebuilt.groups == (StatsFlags.QUEUES | StatsFlags.RLC
                                  | StatsFlags.PDCP)
        assert whole(rebuilt) == agent.api.get_ue_stats(45)[0]


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

    def test_a_change_outside_the_subscribed_groups_does_not_fire(self):
        enb, agent, rnti = lone_agent(FixedCqi(9))
        agent.reports.register(
            StatsRequest(header=Header(xid=1),
                         report_type=int(ReportType.TRIGGERED),
                         flags=int(StatsFlags.CQI)), now=30)
        (first,) = agent.reports.due_replies(30)
        seq = enb.change_seq
        enb.enqueue_dl(rnti, 700, 31)       # queues, RLC, PDCP
        assert agent.reports.due_replies(31) == []
        assert enb.change_seq > seq
        enb.ue(rnti).channel = FixedCqi(4)  # CQI
        enb.cell().refresh_cqi(32, force=True)
        (reply,) = agent.reports.due_replies(32)
        assert reply.full == 1 and reply.ue_reports[0].wb_cqi == 4
        assert reply.ue_reports[0].groups == StatsFlags.CQI


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
    def test_static_channel_ues_retain_one_record(self):
        """One record per UE; for an agent with one subscription it is
        the record that subscription holds as sent, so retaining it
        costs no second copy."""
        sim, agents = build(churn=False)
        try:
            sim.run(200)
        finally:
            sim.close()
        for agent in agents:
            assert sorted(agent.api._records) == agent.enb.rntis()
            assert not agent.api._moving
        (sub,) = agents[1].reports._subscriptions.values()
        assert sub.sent == agents[1].api._records
        assert all(sub.sent[rnti] is record
                   for rnti, record in agents[1].api._records.items())

    def test_fading_ues_retain_their_last_record(self):
        sim, agents = build(churn=True)
        try:
            sim.run(200)
        finally:
            sim.close()
        for agent in agents:
            records = agent.api._records
            assert sorted(records) == agent.enb.rntis()
            assert agent.api._moving == set(records)
            assert all(isinstance(record, UeStatsReport)
                       for record in records.values())

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
        assert whole(record) == agent.api.get_ue_stats(35)[0]
        # The reply carries the retained record, stamped with the
        # groups in which the newcomer differs from its predecessor.
        assert whole(record) == agent.api._records[rnti]
        assert record.queues is agent.api._records[rnti].queues

    def test_handover_drops_the_source_row_and_reobserves(self):
        sim = Simulation(with_master=True)
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
            assert sorted(agent_a.api._records) == enb_a.rntis()
            old_record = agent_a.api._records[old_rnti]
            assert old_record.neighbor_cqi == {cell_b: 13}
            assert agent_a.rrc.execute_handover(
                old_rnti, cell_a, cell_b, sim.now)
            sim.run(2 * PERIOD)
        finally:
            sim.close()
        # The source forgot the departed RNTI; the target observed the
        # swapped-in channel and the swapped-out neighbor.
        assert sorted(agent_a.api._records) == [stayer.rnti]
        assert agent_a.api._moving == {stayer.rnti}
        record = agent_b.api._records[mover.rnti]
        assert record.neighbor_cqi == {cell_a: 6}
        assert record.subband_sinr_db_x10 != old_record.subband_sinr_db_x10
        assert record.wb_cqi == 13


def attaching_agent():
    """One UE on a static channel, ten TTIs after its attach: still in
    random access (its next RRC step is due), nothing queued, every
    HARQ process idle; its record has been built once."""
    enb = EnodeB(17)
    agent = FlexRanAgent(17, enb)
    rnti = enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
    for t in range(RA_DELAY_TTIS):
        enb.tick(t)
    agent.api.collect_ue_stats(RA_DELAY_TTIS, -1)
    return enb, agent, rnti


def start_harq(enb, rnti, tti):
    enb.harq[enb.primary_cell(rnti).cell_id].entity(rnti).start(
        pid=None, tb_bits=8000, payload_bytes=1000, cqi_used=9, n_prb=10,
        lcid=3, tti=tti)


def swap_channel(enb, rnti, tti):
    enb.ue(rnti).channel = FixedCqi(4)
    enb.primary_cell(rnti).refresh_cqi(tti, force=True)


# One mutation through each kind's entity (the eNodeB's own, for the
# kinds it owns), made at TTI RA_DELAY_TTIS.
KIND_MUTATIONS = {
    "rlc": lambda enb, rnti, t: enb.rlc[rnti].enqueue(700, t),
    "pdcp": lambda enb, rnti, t: enb.pdcp[rnti].ingress(3, 700),
    "harq": start_harq,
    "rrc": lambda enb, rnti, t: enb.rrc.setup_due(rnti, t),
    "cqi": swap_channel,
    "ul_buffer": lambda enb, rnti, t: enb.notify_ul(rnti, 500, t),
    "view": lambda enb, rnti, t: (
        enb.configure_bearer(rnti, 3, QosProfile(qci=9)),
        enb.set_drx(rnti, DrxConfig())),
}

# The container each group holds, by which a rebuild is told from a copy,
# keyed by the groups whose move makes it new: ``queues`` is the RLC's
# backlog snapshot, so re-reading QUEUES for an uplink buffer change
# shares it, and only a move of the RLC (its group too) replaces it.
CONTAINERS = {StatsFlags.RLC: "queues", StatsFlags.CQI: "subband_cqi",
              StatsFlags.HARQ: "harq_states"}


class TestOnlyWhatMovedIsRebuilt:
    def test_the_kind_table_names_every_kind(self):
        assert tuple(KIND_GROUPS) == CHANGE_KINDS
        assert set(KIND_MUTATIONS) == set(CHANGE_KINDS) - {"membership"}

    @pytest.mark.parametrize("kind", KIND_MUTATIONS)
    def test_a_kind_moves_exactly_the_groups_the_table_names(self, kind):
        """Checked against two fresh snapshots, so a table entry naming
        too few groups (a stale report) or too many (wasted re-reads)
        fails here; and the pass re-reads those groups, sharing the
        rest with the record it retained."""
        enb, agent, rnti = attaching_agent()
        t = RA_DELAY_TTIS
        (before,) = agent.api.get_ue_stats(t)
        kept = agent.api._records[rnti]
        since = enb.change_seq
        KIND_MUTATIONS[kind](enb, rnti, t)
        (after,) = agent.api.get_ue_stats(t)
        assert schema_reference.changed_groups(before, after) == \
            KIND_GROUPS[kind]
        rows = agent.api.collect_ue_stats(t, since)
        assert [(seq, rec.rnti) for seq, rec in rows] == \
            [(enb.change_seq, rnti)]
        (_, record), = rows
        assert record == after
        if not KIND_GROUPS[kind]:
            assert record is kept
        for group, name in CONTAINERS.items():
            shared = getattr(record, name) is getattr(kept, name)
            assert shared != bool(KIND_GROUPS[kind] & group), name

    def test_a_newcomer_on_a_used_rnti_is_rebuilt_whole(self):
        enb, agent, rnti = attaching_agent()
        start_harq(enb, rnti, RA_DELAY_TTIS)
        enb.rlc[rnti].enqueue(700, RA_DELAY_TTIS)
        agent.api.collect_ue_stats(RA_DELAY_TTIS, -1)
        kept = agent.api._records[rnti]
        since = enb.change_seq
        enb.detach_ue(rnti)
        enb._next_rnti = rnti
        enb.attach_ue(Ue("002", FixedCqi(9)), tti=RA_DELAY_TTIS)
        (_, record), = agent.api.collect_ue_stats(RA_DELAY_TTIS, since)
        assert record == agent.api.get_ue_stats(RA_DELAY_TTIS)[0]
        for name in CONTAINERS.values():
            assert getattr(record, name) is not getattr(kept, name)

    def test_a_harq_only_change_shares_every_other_group(self):
        enb, agent, rnti = lone_agent(FixedCqi(9))
        subscribe(agent.reports)
        (first,) = agent.reports.due_replies(30)[0].ue_reports
        start_harq(enb, rnti, 31)
        (record,) = agent.reports.due_replies(35)[0].ue_reports
        assert record.groups == StatsFlags.HARQ
        assert record.harq_states != first.harq_states
        assert record.queues is first.queues
        assert record.subband_cqi is first.subband_cqi
        assert record.subband_sinr_db_x10 is first.subband_sinr_db_x10
        assert whole(record) == agent.api.get_ue_stats(35)[0]

    def test_a_group_changed_and_changed_back_is_not_sent(self):
        enb, agent, rnti = lone_agent(FixedCqi(9))
        subscribe(agent.reports)
        agent.reports.due_replies(30)
        kept = agent.api._records[rnti]
        cell = enb.primary_cell(rnti).cell_id
        start_harq(enb, rnti, 31)
        enb.harq[cell].entity(rnti).feedback(0, True)
        (reply,) = agent.reports.due_replies(35)
        assert reply.full == 0 and reply.ue_reports == []
        # The UE was visited (its sequence moved) and its HARQ group
        # re-read, to the values it was last sent; the rest is shared.
        record = agent.api._records[rnti]
        assert record.harq_states is not kept.harq_states
        assert record.harq_states == kept.harq_states
        assert record.queues is kept.queues
        assert record.subband_cqi is kept.subband_cqi

    def test_a_static_ue_is_reobserved_when_its_channel_changes(self):
        enb, agent, rnti = lone_agent(FixedCqi(9))
        subscribe(agent.reports)
        (first,) = agent.reports.due_replies(30)[0].ue_reports
        assert rnti not in agent.api._moving
        # A same-CQI object with another SINR: nothing the cell knows
        # moves, what the UE reports does.
        enb.ue(rnti).channel = FixedSinr(first.subband_sinr_db_x10[0] / 10
                                         + 0.05)
        (record,) = agent.reports.due_replies(35)[0].ue_reports
        assert record.groups == StatsFlags.CQI
        assert record.subband_sinr_db_x10 != first.subband_sinr_db_x10
        assert rnti not in agent.api._moving
        # Neighbor channels, assigned, make it a UE that can move.
        enb.ue(rnti).neighbor_channels = {99: TraceCqi([(0, 5), (45, 12)])}
        (record,) = agent.reports.due_replies(40)[0].ue_reports
        assert record.neighbor_cqi == {99: 5}
        assert rnti in agent.api._moving
        (record,) = agent.reports.due_replies(45)[0].ue_reports
        assert record.neighbor_cqi == {99: 12}


# One step of a random program against one eNodeB and its record pass:
# a change through an entity, an attach, a detach, a TTI, or a pass
# whose since_seq is the current sequence plus an offset (below it,
# equal, or above it; None: all).
PASS_OFFSETS = (None, -5, -1, 0, 1, 5)
_STEPS = st.one_of(
    st.tuples(st.just("change"), st.integers(0, 7),
              st.sampled_from(("rlc", "pdcp", "cqi", "ul_buffer", "view"))),
    st.tuples(st.just("attach"), st.integers(1, 15)),
    st.tuples(st.just("detach"), st.integers(0, 7)),
    st.tuples(st.just("tick")),
    st.tuples(st.just("pass"), st.sampled_from(PASS_OFFSETS)))

PROGRAM_CHANGES = {
    "rlc": lambda enb, rnti, t: enb.rlc[rnti].enqueue(300, t),
    "pdcp": lambda enb, rnti, t: enb.pdcp[rnti].ingress(3, 300),
    "cqi": lambda enb, rnti, t: (
        setattr(enb.ue(rnti), "channel", FixedCqi(1 + (t + rnti) % 15)),
        enb.primary_cell(rnti).refresh_cqi(t, force=True)),
    "ul_buffer": lambda enb, rnti, t: enb.notify_ul(rnti, 200, t),
    "view": lambda enb, rnti, t: enb.set_drx(
        rnti, None if enb.drx.is_configured(rnti) else DrxConfig()),
}


class TestPassesDrainOnlyWhatTheyVisit:
    @settings(max_examples=150, deadline=None)
    @given(program=st.lists(_STEPS, max_size=40))
    def test_every_record_handed_out_is_current(self, program):
        """Whatever since_seq each pass is given, a record it returns
        equals a fresh snapshot of its UE, and a final pass over all UEs
        equals a fresh snapshot; a pass that forgot the changes of the
        UEs its since_seq left out fails here."""
        enb = EnodeB(1)
        api = AgentDataPlaneApi(enb)
        for i in range(3):
            enb.attach_ue(Ue(f"{i:03d}", FixedCqi(9)), tti=0)
        t = 0
        for step in program:
            rntis = enb.rntis()
            if step[0] == "change" and rntis:
                PROGRAM_CHANGES[step[2]](enb, rntis[step[1] % len(rntis)], t)
            elif step[0] == "attach":
                enb.attach_ue(Ue(f"{t:03d}", FixedCqi(step[1])), tti=t)
            elif step[0] == "detach" and rntis:
                enb.detach_ue(rntis[step[1] % len(rntis)])
            elif step[0] == "tick":
                enb.tick(t)
                t += 1
            elif step[0] == "pass":
                since = -1 if step[1] is None else enb.change_seq + step[1]
                fresh = {rec.rnti: rec for rec in api.get_ue_stats(t)}
                for _, record in api.collect_ue_stats(t, since):
                    assert record == fresh[record.rnti]
        assert [rec for _, rec in api.collect_ue_stats(t, -1)] \
            == api.get_ue_stats(t)
