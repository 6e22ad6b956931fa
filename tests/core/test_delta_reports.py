"""Delta statistics reporting: watermark semantics end to end.

A periodic subscription's first reply is a full snapshot; later
replies carry only the UEs whose reportable state changed since the
previous reply (``StatsReply.full == 0``).  These tests pin the
watermark machinery in :class:`ReportsManager` -- full-then-delta,
the staggered full refresh, ``force_full`` after a reconnect -- and
that the master's RIB converges to the same picture it would get
from full snapshots.
"""

from repro.core.agent import FlexRanAgent
from repro.core.agent.reports import FULL_REFRESH_REPLIES
from repro.core.protocol.messages import (
    Header,
    ReportType,
    StatsFlags,
    StatsRequest,
)
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig
from repro.lte.phy.channel import FixedCqi
from repro.lte.rrc import RrcState
from repro.lte.ue import Ue
from repro.sim.scenarios import large_scale


def make_agent(n_ues=3, agent_id=17):
    # Default agent id 17: its staggered full refresh lands on reply
    # #17, outside the windows these tests inspect.
    enb = EnodeB(agent_id)
    agent = FlexRanAgent(agent_id, enb)
    rntis = []
    for i in range(n_ues):
        r = enb.attach_ue(Ue(f"{i:03d}", FixedCqi(11)), tti=0)
        rntis.append(r)
    for t in range(30):
        enb.tick(t)
    return enb, agent, rntis


def subscribe(reports, *, xid=1, period=5):
    reports.register(
        StatsRequest(header=Header(xid=xid),
                     report_type=int(ReportType.PERIODIC),
                     period_ttis=period, flags=int(StatsFlags.FULL)),
        now=30)


class TestDeltaReplies:
    def test_first_reply_full_then_deltas(self):
        enb, agent, rntis = make_agent()
        subscribe(agent.reports)
        first = agent.reports.due_replies(30)[0]
        assert first.full == 1
        assert {r.rnti for r in first.ue_reports} == set(rntis)
        # The snapshot carries each UE's CQI and live RRC state.
        for report in first.ue_reports:
            assert report.wb_cqi == 11
            assert list(RrcState)[report.rrc_state] \
                == enb.rrc.context(report.rnti).state
        # Nothing changed: the next due reply is an empty delta.
        quiet = agent.reports.due_replies(35)[0]
        assert quiet.full == 0
        assert quiet.ue_reports == []
        # Cell reports stay complete on every reply.
        assert len(quiet.cell_reports) == len(enb.cells)

    def test_delta_carries_only_changed_ues(self):
        enb, agent, rntis = make_agent()
        subscribe(agent.reports)
        agent.reports.due_replies(30)
        enb.enqueue_dl(rntis[1], 700, 33)
        delta = agent.reports.due_replies(35)[0]
        assert delta.full == 0
        assert [r.rnti for r in delta.ue_reports] == [rntis[1]]
        assert delta.ue_reports[0].queues

    def test_sequence_moved_but_nothing_reported_changed(self):
        # The sequence says which UEs to look at, the diff which groups
        # to send: a UE that only moved its sequence is left out, one
        # that changed outside the subscribed groups too.
        enb, agent, rntis = make_agent()
        subscribe(agent.reports, xid=1)
        agent.reports.register(
            StatsRequest(header=Header(xid=2),
                         report_type=int(ReportType.PERIODIC),
                         period_ttis=5, flags=int(StatsFlags.CQI)), now=30)
        agent.reports.due_replies(30)
        # DRX is recorded as a change, but no report group carries it.
        enb.set_drx(rntis[0], DrxConfig())
        enb.enqueue_dl(rntis[2], 700, 33)
        full, cqi_only = agent.reports.due_replies(35)
        assert [r.rnti for r in full.ue_reports] == [rntis[2]]
        assert not full.ue_reports[0].groups & StatsFlags.CQI
        assert full.ue_reports[0].groups & StatsFlags.QUEUES
        assert cqi_only.full == 0 and cqi_only.ue_reports == []

    def test_force_full_resets_watermark(self):
        enb, agent, rntis = make_agent()
        subscribe(agent.reports)
        agent.reports.due_replies(30)
        agent.reports.force_full()  # what _on_reconnected does
        resent = agent.reports.due_replies(35)[0]
        assert resent.full == 1
        assert {r.rnti for r in resent.ue_reports} == set(rntis)

    def test_staggered_full_refresh(self):
        enb, agent, rntis = make_agent(agent_id=3)
        subscribe(agent.reports)
        fulls = []
        for k in range(FULL_REFRESH_REPLIES + 2):
            reply = agent.reports.due_replies(30 + 5 * k)[0]
            fulls.append(reply.full)
        assert fulls[0] == 1
        # Exactly one unforced full refresh inside the cycle, at the
        # agent-id-staggered position (agent 3 -> reply index 3).
        assert fulls[1:].count(1) == 1
        assert fulls[3] == 1

    def test_rib_converges_under_deltas(self):
        # End to end over the emulated transport: with delta replies
        # flowing, the master's RIB must match every eNodeB's ground
        # truth (queues and CQI), not just the first snapshot.
        sc = large_scale(n_enbs=2, ues_per_enb=6, stats_period_ttis=5)
        sc.sim.run(120)
        rib = sc.sim.master.rib
        for enb, agent in zip(sc.enbs, sc.agents):
            node = rib.agent(agent.agent_id)
            (cell_id,) = enb.cells
            cell = enb.cells[cell_id]
            rib_ues = {u.rnti: u for u in node.all_ues()}
            for rnti in enb.rntis():
                assert rnti in rib_ues
                assert rib_ues[rnti].stats.wb_cqi \
                    == cell.known_cqi.get(rnti, 0)
