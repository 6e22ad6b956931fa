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
from repro.core.protocol.schema import UNGROUPED, wire_fields


FULL_REFRESH_REPLIES = 64
"""A periodic subscription re-sends a full snapshot every this many
replies (staggered by agent id) so the master's picture self-heals even
if a delta reply is ever lost or misapplied: a group that has not
changed since the loss is stale at the master until then, and no
longer."""

_new = object.__new__
_group_values = UeStatsReport.group_values
_changed_groups = UeStatsReport.changed_groups
_ALL_GROUPS = UeStatsReport.ALL_GROUPS

_UE_FIELDS = tuple((name, group)
                   for name, kind, group in wire_fields(UeStatsReport)
                   if kind != "mask")
"""``(name, group bit or None)`` of every statistic a record carries."""


@dataclass
class Subscription:
    """One registered statistics request."""

    xid: int
    report_type: int
    period_ttis: int
    flags: int
    created_tti: int
    served: bool = False
    last_digest: Optional[int] = None
    #: Change-sequence watermark of the previous reply; ``-1`` forces
    #: the next reply to be a full snapshot.
    last_seq: int = -1
    #: Replies produced so far (drives the staggered full refresh).
    replies: int = 0
    #: PERIODIC only: per RNTI, the ``group_values`` this subscription
    #: has been sent -- what the next record is diffed against, kept up
    #: to date by the diff itself.  Rebuilt by every full snapshot.
    sent: Dict[int, list] = field(default_factory=dict)


class ReportsManager:
    """Registers report requests and produces due replies.

    Periodic subscriptions are served *incrementally*: after the first
    full snapshot, each reply carries only what changed since the
    previous one.  The eNodeB's change sequence (with channel-driven
    changes folded in by :meth:`AgentDataPlaneApi.collect_ue_stats`,
    the one pass over the UEs a report TTI makes) says which UEs to
    look at; the generated ``UeStatsReport.changed_groups`` says which
    statistic groups of each differ from what *this subscription* was
    last sent, and only those travel.  A subscription's flags are a
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
        self._subscriptions[xid] = Subscription(
            xid=xid, report_type=request.report_type,
            period_ttis=max(1, request.period_ttis), flags=request.flags,
            created_tti=now)

    def active_subscriptions(self) -> List[Subscription]:
        return [self._subscriptions[x] for x in sorted(self._subscriptions)]

    def due_replies(self, now: int) -> List[StatsReply]:
        """Build the statistics replies owed at this TTI."""
        replies: List[StatsReply] = []
        done: List[int] = []
        due = [sub for sub in self.active_subscriptions()
               if self._is_due(sub, now)]
        if not due:
            return replies
        # One pass over the UEs per report TTI: it folds channel-driven
        # field changes into the change sequence and returns the record
        # of every UE changed since the oldest watermark among the due
        # subscriptions; each of them then takes its own share.
        full_ues: Optional[List[UeStatsReport]] = None
        marks = [self._watermark(sub) for sub in due]
        since = min(marks)
        rows = self._api.collect_ue_stats(now, since)
        seq_now = self._api.change_seq
        cells: Optional[List[CellStatsReport]] = None
        for sub, mark in zip(due, marks):
            triggered = sub.report_type == ReportType.TRIGGERED
            if triggered and mark == seq_now:
                # Every digest input is covered by the change sequence,
                # so an unchanged sequence means an unchanged digest:
                # skip (the pass built no record for this watermark).
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
                    sub.sent = {rec.rnti: _group_values(rec)
                                for rec in full_ues}
                ue_reports = (full_ues if wanted == _ALL_GROUPS else
                              [_carrying(rec, wanted) for rec in full_ues])
            sub.last_seq = seq_now
            if triggered:
                digest = self._digest(ue_reports, wanted)
                if digest == sub.last_digest:
                    continue
                sub.last_digest = digest
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
        past *mark*, the subscribed groups that differ from what it was
        last sent (all of them for a UE it has not seen); a UE with
        none is left out."""
        sent = sub.sent
        relevant = wanted | UNGROUPED
        out: List[UeStatsReport] = []
        for seq, rec in rows:
            if seq <= mark:
                continue
            seen = sent.get(rec.rnti)
            if seen is None:
                sent[rec.rnti] = _group_values(rec)
                changed = relevant
            else:
                changed = _changed_groups(seen, rec) & relevant
                if not changed:
                    continue
            out.append(_carrying(rec, changed & wanted))
        return out

    def _watermark(self, sub: Subscription) -> int:
        """The change sequence above which *sub* needs UE records.

        Its own watermark when the reply can be a delta (PERIODIC, not
        its turn for the staggered refresh) or may be skipped outright
        (TRIGGERED with a digest to compare against); -1 when it needs
        every UE.
        """
        if sub.report_type == ReportType.PERIODIC:
            if (sub.replies % FULL_REFRESH_REPLIES
                    == self._agent_id % FULL_REFRESH_REPLIES):
                return -1
            return sub.last_seq
        if (sub.report_type == ReportType.TRIGGERED
                and sub.last_digest is not None):
            return sub.last_seq
        return -1

    def _is_due(self, sub: Subscription, now: int) -> bool:
        if sub.report_type == ReportType.ONE_OFF:
            return not sub.served
        if sub.report_type == ReportType.PERIODIC:
            return (now - sub.created_tti) % sub.period_ttis == 0
        if sub.report_type == ReportType.TRIGGERED:
            return True  # change detection happens against the digest
        return False

    @staticmethod
    def _digest(reports: List[UeStatsReport], wanted: int) -> int:
        """Change-detection digest over the wire fields of *reports*
        that a subscription to the groups *wanted* is sent."""
        names = [name for name, group in _UE_FIELDS
                 if group is None or group & wanted]
        return hash(tuple(
            _hashable(getattr(rep, name))
            for rep in reports for name in names))


def _carrying(record: UeStatsReport, groups: int) -> UeStatsReport:
    """*record* as it goes into one reply: the same object when it
    already says *groups*, otherwise a copy stamped with them (sharing
    every container; a published record is never written)."""
    if record.groups == groups:
        return record
    stamped = _new(UeStatsReport)
    stamped.__dict__ = {**record.__dict__, "groups": groups}
    return stamped


def _hashable(value):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value
