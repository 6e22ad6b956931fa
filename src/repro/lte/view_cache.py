"""Per-cell cache of the scheduler-facing UE views.

Rebuilding every UE's :class:`~repro.lte.mac.dci.UeView` (RLC queue
walk, CQI lookup, DRX and RRC checks) for every attached UE on every
TTI kept the 32x100 deployment far above the paper's 1 ms TTI budget
(Section 6.1.2), although only a few percent of the UEs change in any
one TTI.  :class:`UeViewCache` keeps one view per served UE, keyed by
RNTI and mutated in place, plus the RNTI-ordered lists the scheduling
context exposes (all schedulable UEs, the backlogged ones, and those of
them with a usable CQI).  :meth:`build` refreshes only the views marked
dirty since the last build, so a UE for which nothing changed costs
nothing.

The cache owns no protocol state: RLC, PDCP, HARQ, DRX, RRC and the
cell stay the owners and record the RNTIs they change; the eNodeB's
settle step puts each recorded RNTI into :attr:`UeViewCache.dirty` of
its PCell and SCells before any build.  Invalidation rules (see
DESIGN.md section 6):

* a dirty UE has every view field, its membership and its backlog
  position recomputed;
* an eICIC interference flip (``interferer_muted`` changed since the
  last build) dirties every UE, because the cached CQIs were derived
  under the other interference state;
* UEs with DRX configured have their wakefulness re-checked on every
  build (sleep is a pure function of time, so no event marks it);
* a membership change (attach, detach, RRC or DRX transition) rebuilds
  the view list;
* a UE entering or leaving the backlog, or a backlogged UE's CQI
  crossing zero, re-filters the schedulable list.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Set, Tuple, TYPE_CHECKING

from repro.lte.mac.dci import UeView
from repro.lte.rrc import RrcState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.lte.cell import Cell
    from repro.lte.enodeb import EnodeB

_SCHEDULABLE_STATES = (RrcState.CONNECTING, RrcState.CONNECTED)
_rnti_of = attrgetter("rnti")


class UeViewCache:
    """Cached scheduler views of one cell's UEs, refreshed when dirty."""

    def __init__(self, cell: "Cell", enb: "EnodeB") -> None:
        self._cell = cell
        self._enb = enb
        self._views: Dict[int, UeView] = {}
        #: RNTIs whose view is out of date; filled by the eNodeB's
        #: settle step, emptied by the next build.
        self.dirty: Set[int] = set()
        self._drx: Set[int] = set()
        #: RNTIs whose view is in ``_ues``: awake and in a schedulable
        #: RRC state as of the last refresh.
        self._included: Set[int] = set()
        # All three lists are RNTI-ordered.  ``_backlogged`` is kept
        # incrementally (it churns every TTI under load); the other two
        # are rebuilt from it / from ``_included`` when flagged stale.
        self._ues: List[UeView] = []
        self._backlogged: List[UeView] = []
        self._schedulable: List[UeView] = []
        self._ues_stale = False
        self._schedulable_stale = False
        #: The interference state the cached CQIs were derived under.
        self._cqis_assume_muted = True

    def add(self, rnti: int) -> None:
        """Start serving *rnti* (attach / SCell activation)."""
        self._views[rnti] = UeView(rnti=rnti, queue_bytes=0, cqi=0)
        if self._enb.drx.is_configured(rnti):
            self._drx.add(rnti)
        self.dirty.add(rnti)

    def remove(self, rnti: int) -> None:
        """Stop serving *rnti* (detach / SCell deactivation)."""
        view = self._views.pop(rnti)
        if rnti in self._included:
            self._included.discard(rnti)
            self._ues_stale = True
            if view.queue_bytes > 0:
                del self._backlogged[
                    bisect_left(self._backlogged, rnti, key=_rnti_of)]
                self._schedulable_stale = True
        self.dirty.discard(rnti)
        self._drx.discard(rnti)

    def track_drx(self, rnti: int, tracked: bool) -> None:
        """Start (or stop) re-checking *rnti*'s wakefulness per build."""
        if tracked:
            self._drx.add(rnti)
        else:
            self._drx.discard(rnti)

    def build(self, tti: int) -> Tuple[List[UeView], List[UeView],
                                       List[UeView]]:
        """Refresh dirty views; return (ues, backlogged, schedulable).

        The returned lists are the cache's own: callers (the scheduling
        context) must treat them as read-only snapshots of this TTI,
        exactly as :meth:`SchedulingContext.backlogged` already requires.
        """
        muted = self._cell.interferer_muted(tti)
        if muted is not self._cqis_assume_muted:
            self.dirty.update(self._views)
            self._cqis_assume_muted = muted
        if self._drx:
            is_awake = self._enb.drx.is_awake
            included = self._included
            for rnti in self._drx:
                # A wakefulness flip shows as a disagreement with the
                # membership (an idle UE merely refreshes needlessly).
                if is_awake(rnti, tti) != (rnti in included):
                    self.dirty.add(rnti)
        if self.dirty:
            self._refresh(tti)
        if self._ues_stale:
            views = self._views
            self._ues = [views[rnti] for rnti in sorted(self._included)]
            self._ues_stale = False
        if self._schedulable_stale:
            self._schedulable = [v for v in self._backlogged if v.cqi > 0]
            self._schedulable_stale = False
        return self._ues, self._backlogged, self._schedulable

    def _refresh(self, tti: int) -> None:
        cell = self._cell
        enb = self._enb
        rlc_map = enb.rlc
        is_awake = enb.drx.is_awake
        state_of = enb.rrc.state_of
        included = self._included
        backlogged = self._backlogged
        for rnti in self.dirty:
            view = self._views[rnti]
            was_included = rnti in included
            was_backlogged = was_included and view.queue_bytes > 0
            was_usable = view.cqi > 0
            ue = cell.ues[rnti]
            sizes = rlc_map[rnti].queues.sizes()
            view.queues = sizes
            view.queue_bytes = sum(sizes.values())
            view.cqi = cell.scheduling_cqi(rnti, tti)
            view.ul_buffer_bytes = ue.ul_backlog_bytes
            view.labels = ue.labels
            now_included = (is_awake(rnti, tti)
                            and state_of(rnti) in _SCHEDULABLE_STATES)
            if now_included != was_included:
                if now_included:
                    included.add(rnti)
                else:
                    included.discard(rnti)
                self._ues_stale = True
            now_backlogged = now_included and view.queue_bytes > 0
            if now_backlogged != was_backlogged:
                i = bisect_left(backlogged, rnti, key=_rnti_of)
                if now_backlogged:
                    backlogged.insert(i, view)
                else:
                    del backlogged[i]
                self._schedulable_stale = True
            elif now_backlogged and was_usable != (view.cqi > 0):
                self._schedulable_stale = True
        self.dirty.clear()
