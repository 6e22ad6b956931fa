"""Reports & Events Manager: one-off, periodic and triggered reporting.

Implements the agent-side subscription machinery of Section 4.3.1: the
master registers statistics requests asynchronously; the agent keeps
the registrations and emits a :class:`StatsReply` when due.  Periodic
reports use the TTI as the time reference for the interval; triggered
reports fire "only when there is a change in the contents of the
requested report".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.protocol.messages import (
    CellStatsReport,
    Header,
    ReportType,
    StatsFlags,
    StatsReply,
    StatsRequest,
    UeStatsReport,
)
from repro.core.protocol.schema import UNGROUPED


FULL_REFRESH_REPLIES = 64
"""A periodic subscription re-sends a full snapshot every this many
replies (staggered by agent id) so the master's picture self-heals even
if a delta reply is ever lost or misapplied: a group that has not
changed since the loss is stale at the master until then, and no
longer."""

_new = object.__new__
_changed_groups = UeStatsReport.changed_groups
_ALL_GROUPS = UeStatsReport.ALL_GROUPS


@dataclass
class Subscription:
    """One registered statistics request."""

    xid: int
    report_type: int
    period_ttis: int
    flags: int
    created_tti: int
    served: bool = False
    #: Change-sequence watermark of the previous reply; ``-1`` forces
    #: the next reply to be a full snapshot.
    last_seq: int = -1
    #: Replies produced so far (drives the staggered full refresh).
    replies: int = 0
    #: Per RNTI, the record this subscription last considered (PERIODIC)
    #: or sent (TRIGGERED): what the next one is diffed against.
    sent: Dict[int, UeStatsReport] = field(default_factory=dict)


class ReportsManager:
    """Registers report requests and produces due replies.

    Periodic subscriptions are served *incrementally*: after the first
    full snapshot, each reply carries only what changed since the
    previous one.  The eNodeB's change sequence says which UEs to look
    at: a cell's SRS observation records a channel-driven move as a
    ``cqi`` or ``measurement`` change, like any other, and
    :meth:`AgentDataPlaneApi.collect_ue_stats` (the one pass over the
    changed UEs a report TTI makes) reads it.  The generated
    ``UeStatsReport.changed_groups`` says which statistic groups of
    each differ from what *this subscription* was last sent, and only
    those travel.  A subscription's flags are a
    mask ANDed onto that, in full snapshots too: a group it did not ask
    for is never on the wire.
    Cell reports are always complete, every reply self-identifies via
    ``StatsReply.full``, and a full snapshot is re-sent every
    :data:`FULL_REFRESH_REPLIES` replies and after a reconnect
    (:meth:`force_full`), so the master's RIB converges even across
    disruptions.
    """

    def __init__(self, agent_id: int, api) -> None:
        self._agent_id = agent_id
        #: Any technology's data-plane facade: ``collect_ue_stats`` +
        #: ``change_seq`` and ``get_cell_stats`` are what this uses.
        self._api = api
        #: In xid order, kept so by :meth:`register`.
        self._subscriptions: Dict[int, Subscription] = {}
        self.reports_sent = 0

    def force_full(self) -> None:
        """Make every subscription's next reply a full snapshot."""
        for sub in self._subscriptions.values():
            sub.last_seq = -1

    def register(self, request: StatsRequest, now: int) -> None:
        """Apply a StatsRequest (or cancel an existing subscription)."""
        xid = request.header.xid
        if request.report_type == ReportType.CANCEL:
            self._subscriptions.pop(xid, None)
            return
        if request.report_type == ReportType.PERIODIC and request.period_ttis <= 0:
            raise ValueError(
                f"periodic report needs period >= 1 TTI, got "
                f"{request.period_ttis}")
        self._subscriptions = dict(sorted({
            **self._subscriptions, xid: Subscription(
                xid=xid, report_type=request.report_type,
                period_ttis=max(1, request.period_ttis),
                flags=request.flags, created_tti=now)}.items()))

    def due_replies(self, now: int) -> List[StatsReply]:
        """Build the statistics replies owed at this TTI."""
        replies: List[StatsReply] = []
        done: List[int] = []
        # Due: a PERIODIC on its period, a TRIGGERED always (it compares
        # records), a ONE_OFF until served.
        due = [sub for sub in self._subscriptions.values()
               if (sub.report_type == ReportType.PERIODIC
                   and (now - sub.created_tti) % sub.period_ttis == 0)
               or sub.report_type == ReportType.TRIGGERED
               or sub.report_type == ReportType.ONE_OFF and not sub.served]
        if not due:
            return replies
        # One pass over the changed UEs per report TTI: it returns the
        # record of every UE changed since the oldest watermark among
        # the due subscriptions (channel moves included, recorded by the
        # SRS observation); each of them then takes its own share.
        full_ues: Optional[List[UeStatsReport]] = None
        marks = [self._watermark(sub) for sub in due]
        since = min(marks)
        rows = self._api.collect_ue_stats(now, since)
        seq_now = self._api.change_seq
        cells: Optional[List[CellStatsReport]] = None
        for sub, mark in zip(due, marks):
            triggered = sub.report_type == ReportType.TRIGGERED
            if triggered and mark == seq_now:
                # Every field it compares is covered by the change
                # sequence, so an unchanged sequence means an unchanged
                # report: skip (the pass built no record for this mark).
                continue
            wanted = sub.flags & _ALL_GROUPS
            delta = mark >= 0 and not triggered
            if delta:
                ue_reports = self._changed(sub, rows, mark, wanted)
            else:
                if full_ues is None:
                    if since >= 0:
                        # A TRIGGERED subscription's sequence did move:
                        # it needs the whole snapshot after all.
                        since = -1
                        rows = self._api.collect_ue_stats(now, since)
                    full_ues = [rec for _, rec in rows]
                if sub.report_type == ReportType.PERIODIC:
                    sub.sent = {rec.rnti: rec for rec in full_ues}
                ue_reports = (full_ues if wanted == _ALL_GROUPS else
                              [_carrying(rec, wanted) for rec in full_ues])
            sub.last_seq = seq_now
            if triggered:
                if sub.replies and _unchanged(sub.sent, full_ues, wanted):
                    continue
                sub.sent = {rec.rnti: rec for rec in full_ues}
            if cells is None:
                cells = self._api.get_cell_stats(now)
            sub.replies += 1
            replies.append(StatsReply(
                header=Header(agent_id=self._agent_id, xid=sub.xid, tti=now),
                report_type=sub.report_type,
                full=0 if delta else 1,
                ue_reports=ue_reports,
                cell_reports=cells if sub.flags & StatsFlags.CELL else []))
            sub.served = True
            if sub.report_type == ReportType.ONE_OFF:
                done.append(sub.xid)
        for xid in done:
            del self._subscriptions[xid]
        self.reports_sent += len(replies)
        return replies

    @staticmethod
    def _changed(sub: Subscription, rows, mark: int,
                 wanted: int) -> List[UeStatsReport]:
        """The delta share of *sub*: of every UE whose sequence moved
        past *mark*, the subscribed groups that differ from the record
        it last considered (all of them for a UE it has not seen); a UE
        with none is left out."""
        sent = sub.sent
        relevant = wanted | UNGROUPED
        out: List[UeStatsReport] = []
        for seq, rec in rows:
            if seq <= mark:
                continue
            rnti = rec.rnti
            if rnti in sent:
                seen = sent[rnti]
                if seen is rec:
                    continue
                sent[rnti] = rec
                changed = _changed_groups(seen, rec) & relevant
                if not changed:
                    continue
            else:
                sent[rnti] = rec
                changed = relevant
            out.append(_carrying(rec, changed & wanted))
        return out

    def _watermark(self, sub: Subscription) -> int:
        """The change sequence above which *sub* needs UE records.

        Its own watermark when the reply can be a delta (PERIODIC, not
        its turn for the staggered refresh) or may be skipped outright
        (TRIGGERED with a reply to compare against); -1 when it needs
        every UE.
        """
        if sub.report_type == ReportType.PERIODIC:
            if (sub.replies % FULL_REFRESH_REPLIES
                    == self._agent_id % FULL_REFRESH_REPLIES):
                return -1
            return sub.last_seq
        if sub.report_type == ReportType.TRIGGERED and sub.replies:
            return sub.last_seq
        return -1


def _unchanged(sent: Dict[int, UeStatsReport],
               records: List[UeStatsReport], wanted: int) -> bool:
    """Whether *records* are the UEs *sent* holds, with the same values
    in every field a subscription to the groups *wanted* is sent."""
    relevant = wanted | UNGROUPED
    return len(records) == len(sent) and all(
        rec.rnti in sent
        and not _changed_groups(sent[rec.rnti], rec) & relevant
        for rec in records)


def _carrying(record: UeStatsReport, groups: int) -> UeStatsReport:
    """*record* as it goes into one reply: the same object when it
    already says *groups*, otherwise a copy stamped with them (sharing
    every container; a published record is never written).  One slot
    store per field: a copying helper would cost a call per record."""
    if record.groups == groups:
        return record
    stamped = _new(UeStatsReport)
    stamped.rnti = record.rnti
    stamped.groups = groups
    stamped.rrc_state = record.rrc_state
    stamped.queues = record.queues
    stamped.ul_buffer_bytes = record.ul_buffer_bytes
    stamped.wb_cqi = record.wb_cqi
    stamped.wb_cqi_clear = record.wb_cqi_clear
    stamped.subband_cqi = record.subband_cqi
    stamped.subband_sinr_db_x10 = record.subband_sinr_db_x10
    stamped.power_headroom_db = record.power_headroom_db
    stamped.neighbor_cqi = record.neighbor_cqi
    stamped.harq_states = record.harq_states
    stamped.rlc_bytes_in = record.rlc_bytes_in
    stamped.rlc_bytes_out = record.rlc_bytes_out
    stamped.pdcp_tx_bytes = record.pdcp_tx_bytes
    stamped.pdcp_rx_bytes = record.pdcp_rx_bytes
    stamped.rx_bytes_total = record.rx_bytes_total
    return stamped
