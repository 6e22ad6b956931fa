"""Reports & Events Manager: one-off, periodic and triggered reporting.

Implements the agent-side subscription machinery of Section 4.3.1: the
master registers statistics requests asynchronously; the agent keeps
the registrations and emits a :class:`StatsReply` when due.  Periodic
reports use the TTI as the time reference for the interval; triggered
reports fire "only when there is a change in the contents of the
requested report".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.protocol.messages import (
    CellStatsReport,
    Header,
    ReportType,
    StatsFlags,
    StatsReply,
    StatsRequest,
    UeStatsReport,
)


FULL_REFRESH_REPLIES = 64
"""A periodic subscription re-sends a full snapshot every this many
replies (staggered by agent id) so the master's picture self-heals even
if a delta reply is ever lost or misapplied."""


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


class ReportsManager:
    """Registers report requests and produces due replies.

    Periodic subscriptions are served *incrementally*: after the first
    full snapshot, each reply carries only the UEs whose reportable
    state changed since the previous reply (tracked through the
    eNodeB's change-sequence machinery, with channel-driven changes
    folded in by :meth:`AgentDataPlaneApi.collect_ue_stats`, the one
    pass over the UEs a report TTI makes).
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
        base_cells: Optional[List[CellStatsReport]] = None
        for sub, mark in zip(due, marks):
            triggered = sub.report_type == ReportType.TRIGGERED
            if triggered and mark == seq_now:
                # Every digest input is covered by the change sequence,
                # so an unchanged sequence means an unchanged digest:
                # skip (the pass built no record for this watermark).
                continue
            if base_cells is None:
                base_cells = self._api.get_cell_stats(now)
            delta = mark >= 0 and not triggered
            if delta:
                base_ues = [rec for seq, rec in rows if seq > mark]
            else:
                if full_ues is None:
                    if since >= 0:
                        # A TRIGGERED subscription's sequence did move:
                        # it needs the whole snapshot after all.
                        since = -1
                        rows = self._api.collect_ue_stats(now, since)
                    full_ues = [rec for _, rec in rows]
                base_ues = full_ues
            ue_reports, cell_reports = self._filter(
                (base_ues, base_cells), sub.flags)
            sub.last_seq = seq_now
            if triggered:
                digest = self._digest(ue_reports)
                if digest == sub.last_digest:
                    continue
                sub.last_digest = digest
            sub.replies += 1
            replies.append(StatsReply(
                header=Header(agent_id=self._agent_id, xid=sub.xid, tti=now),
                report_type=sub.report_type,
                full=0 if delta else 1,
                ue_reports=ue_reports, cell_reports=cell_reports))
            sub.served = True
            if sub.report_type == ReportType.ONE_OFF:
                done.append(sub.xid)
        for xid in done:
            del self._subscriptions[xid]
        self.reports_sent += len(replies)
        return replies

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
    def _filter(snapshot: Tuple[List[UeStatsReport], List[CellStatsReport]],
                flags: int) -> Tuple[List[UeStatsReport], List[CellStatsReport]]:
        """Trim a full snapshot down to the subscribed statistic groups."""
        ue_full, cell_full = snapshot
        if flags & StatsFlags.FULL == StatsFlags.FULL:
            # Fast path for the dominant subscription shape: with every
            # group subscribed nothing gets trimmed.  Published records
            # and lists are replaced, never mutated, so replies may
            # share them.
            return ue_full, cell_full
        cells = list(cell_full) if flags & StatsFlags.CELL else []
        ues: List[UeStatsReport] = []
        for rep in ue_full:
            trimmed = UeStatsReport(rnti=rep.rnti, rrc_state=rep.rrc_state)
            if flags & StatsFlags.QUEUES:
                trimmed.queues = dict(rep.queues)
                trimmed.ul_buffer_bytes = rep.ul_buffer_bytes
            if flags & StatsFlags.CQI:
                trimmed.wb_cqi = rep.wb_cqi
                trimmed.wb_cqi_clear = rep.wb_cqi_clear
                trimmed.subband_cqi = list(rep.subband_cqi)
                trimmed.subband_sinr_db_x10 = list(rep.subband_sinr_db_x10)
                trimmed.power_headroom_db = rep.power_headroom_db
                trimmed.neighbor_cqi = dict(rep.neighbor_cqi)
            if flags & StatsFlags.HARQ:
                trimmed.harq_states = list(rep.harq_states)
            if flags & StatsFlags.RLC:
                trimmed.rlc_bytes_in = rep.rlc_bytes_in
                trimmed.rlc_bytes_out = rep.rlc_bytes_out
            if flags & StatsFlags.PDCP:
                trimmed.pdcp_tx_bytes = rep.pdcp_tx_bytes
                trimmed.pdcp_rx_bytes = rep.pdcp_rx_bytes
                trimmed.rx_bytes_total = rep.rx_bytes_total
            ues.append(trimmed)
        return ues, cells

    @staticmethod
    def _digest(reports: List[UeStatsReport]) -> int:
        """Change-detection digest over every wire field of *reports*."""
        return hash(tuple(
            _hashable(getattr(rep, name))
            for rep in reports for name in _UE_FIELD_NAMES))


_UE_FIELD_NAMES = tuple(name for name, _ in UeStatsReport.FIELDS)


def _hashable(value):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value
