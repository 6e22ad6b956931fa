"""Per-cell cache of the scheduler-facing UE views.

Rebuilding every UE's :class:`~repro.lte.mac.dci.UeView` (RLC queue
walk, CQI lookup, DRX and RRC checks) for every attached UE on every
TTI kept the 32x100 deployment far above the paper's 1 ms TTI budget
(Section 6.1.2), although only a few percent of the UEs change in any
one TTI.  :class:`UeViewCache` keeps one view per served UE, keyed by
RNTI and mutated in place, plus the RNTI-ordered lists the scheduling
context exposes (all schedulable UEs, the backlogged ones, those of
them with a usable CQI, and those with uplink backlog and a usable
CQI).  :meth:`build` re-reads only the view fields the changes recorded
since the last build feed, so a UE for which nothing changed costs
nothing.

The cache owns no protocol state: RLC, PDCP, HARQ, DRX, RRC and the
cell stay the owners and record the RNTIs they change; the eNodeB's
settle step puts each into :attr:`UeViewCache.dirty`, which every cache
registers (``EnodeB.settle_into``) under each kind's refresher for the
UEs its cell serves, PCell or SCell.  Invalidation rules (see DESIGN.md
section 6):

* a change re-reads the fields its kind feeds (:data:`REFRESHER_OF_KIND`):
  ``harq``, ``pdcp`` and ``measurement`` none; ``rlc`` the queues and
  backlog position; ``cqi`` the CQI and the CQI > 0 filters;
  ``ul_buffer`` the uplink buffer and list; ``membership``, ``rrc`` and ``view`` (DRX, bearer
  QoS) everything, membership included;
* an eICIC interference flip (``interferer_muted`` changed since the
  last build) refreshes every UE fully, because the cached CQIs were
  derived under the other interference state;
* UEs with DRX configured have their wakefulness re-checked on every
  build (sleep is a pure function of time, so no event marks it);
* a membership change rebuilds the view list;
* the schedulable list is the backlogged list itself, the same object,
  while no backlogged UE has CQI 0; otherwise a UE entering or leaving
  the backlog, or a backlogged UE's CQI crossing zero, re-filters it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.lte.mac.dci import UeView
from repro.lte.rrc import RrcState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.lte.cell import Cell
    from repro.lte.enodeb import EnodeB

_SCHEDULABLE_STATES = (RrcState.CONNECTING, RrcState.CONNECTED)
_rnti_of = attrgetter("rnti")

REFRESHER_OF_KIND: Dict[str, Optional[str]] = {
    "membership": "full", "rrc": "full", "view": "full", "rlc": "queues",
    "cqi": "cqi", "ul_buffer": "ul_buffer", "harq": None, "pdcp": None,
    "measurement": None}
"""Per ``enodeb.CHANGE_KINDS`` entry, the ``UeViewCache._refresh_<name>``
re-reading the view fields it feeds (None: none); all are idempotent."""


class UeViewCache:
    """Cached scheduler views of one cell's UEs, refreshed when dirty."""

    def __init__(self, cell: "Cell", enb: "EnodeB") -> None:
        self._cell = cell
        self._enb = enb
        self._views: Dict[int, UeView] = {}
        #: Per refresher, the RNTIs whose fields it must re-read;
        #: filled by the eNodeB's settle step, emptied by the next build.
        self.dirty: Dict[str, Set[int]] = {
            name: set() for name in ("full", "queues", "cqi", "ul_buffer")}
        enb.settle_into({kind: self.dirty[name]
                         for kind, name in REFRESHER_OF_KIND.items() if name},
                        cell.ues.keys())
        self._refreshers = tuple(
            (rntis, getattr(self, f"_refresh_{name}"))
            for name, rntis in self.dirty.items())
        self._drx: Set[int] = set()
        #: RNTIs whose view is in ``_ues``: awake and in a schedulable
        #: RRC state as of the last refresh (read-only to callers).
        self.included: Set[int] = set()
        # All four lists are RNTI-ordered.  ``_backlogged`` is kept
        # incrementally (it churns every TTI under load); the others
        # are rebuilt from the views they filter when flagged stale,
        # except that ``_schedulable`` *is* ``_backlogged`` while none
        # of its views has CQI 0 (``_unusable`` counts those).
        self._ues: List[UeView] = []
        self._backlogged: List[UeView] = []
        self._schedulable: List[UeView] = self._backlogged
        self._unusable = 0
        self._ul_backlogged: List[UeView] = []
        self._ues_stale = False
        self._schedulable_stale = False
        self._ul_stale = False
        #: The interference state the cached CQIs were derived under.
        self._cqis_assume_muted = True

    def add(self, rnti: int) -> None:
        """Start serving *rnti* (attach / SCell activation)."""
        self._views[rnti] = UeView(rnti=rnti, queue_bytes=0, cqi=0)
        if self._enb.drx.is_configured(rnti):
            self._drx.add(rnti)
        self.dirty["full"].add(rnti)

    def remove(self, rnti: int) -> None:
        """Stop serving *rnti* (detach / SCell deactivation)."""
        view = self._views.pop(rnti)
        if rnti in self.included:
            self.included.discard(rnti)
            self._ues_stale = self._ul_stale = True
            if view.queue_bytes > 0:
                if view.cqi <= 0:
                    self._unusable -= 1
                self._move(view, False)
        for rntis in self.dirty.values():
            rntis.discard(rnti)
        self._drx.discard(rnti)

    def track_drx(self, rnti: int, tracked: bool) -> None:
        """Start (or stop) re-checking *rnti*'s wakefulness per build."""
        if tracked:
            self._drx.add(rnti)
        else:
            self._drx.discard(rnti)

    def build(self, tti: int) -> Tuple[List[UeView], List[UeView],
                                       List[UeView], List[UeView]]:
        """Refresh dirty views; return (ues, backlogged, schedulable, ul).

        The returned lists are the cache's own: callers (the scheduling
        context) must treat them as read-only snapshots of this TTI,
        exactly as :meth:`SchedulingContext.backlogged` already requires.
        """
        full = self.dirty["full"]
        cell = self._cell
        muted = cell.interference_source is None or cell.interferer_muted(tti)
        if muted is not self._cqis_assume_muted:
            full.update(self._views)
            self._cqis_assume_muted = muted
        if self._drx:
            is_awake = self._enb.drx.is_awake
            included = self.included
            for rnti in self._drx:
                # A wakefulness flip shows as a disagreement with the
                # membership (an idle UE merely refreshes needlessly).
                if is_awake(rnti, tti) != (rnti in included):
                    full.add(rnti)
        for rntis, refresh in self._refreshers:
            if rntis:
                refresh(rntis, tti)
                rntis.clear()
        if self._ues_stale:
            views = self._views
            self._ues = [views[rnti] for rnti in sorted(self.included)]
            self._ues_stale = False
        if self._schedulable_stale:
            self._schedulable = (
                [v for v in self._backlogged if v.cqi > 0] if self._unusable
                else self._backlogged)
            self._schedulable_stale = False
        if self._ul_stale:
            self._ul_backlogged = [v for v in self._ues
                                   if v.ul_buffer_bytes > 0 and v.cqi > 0]
            self._ul_stale = False
        return (self._ues, self._backlogged, self._schedulable,
                self._ul_backlogged)

    def _move(self, view: UeView, backlogged: bool) -> None:
        """Insert *view* into (or delete it from) the backlogged list."""
        i = bisect_left(self._backlogged, view.rnti, key=_rnti_of)
        if backlogged:
            self._backlogged.insert(i, view)
        else:
            del self._backlogged[i]
        self._schedulable_stale = True

    def _refresh_full(self, rntis: Set[int], tti: int) -> None:
        cell = self._cell
        enb = self._enb
        rlc_map = enb.rlc
        is_awake = enb.drx.is_awake
        state_of = enb.rrc.state_of
        included = self.included
        cqis = cell.scheduling_cqis(tti)
        for rnti in rntis:
            view = self._views[rnti]
            was_included = rnti in included
            was_backlogged = was_included and view.queue_bytes > 0
            was_usable = view.cqi > 0
            ue = cell.ues[rnti]
            view.queues, view.queue_bytes = rlc_map[rnti].backlog()
            view.cqi = cqis[rnti]
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
            now_usable = view.cqi > 0
            self._unusable += ((now_backlogged and not now_usable)
                               - (was_backlogged and not was_usable))
            if now_backlogged != was_backlogged:
                self._move(view, now_backlogged)
            elif now_backlogged and was_usable != now_usable:
                self._schedulable_stale = True
        self._ul_stale = True

    def _refresh_queues(self, rntis: Set[int], tti: int) -> None:
        rlc_map = self._enb.rlc
        views = self._views
        included = self.included
        for rnti in rntis:
            view = views[rnti]
            was_backlogged = view.queue_bytes > 0
            view.queues, total = rlc_map[rnti].backlog()
            view.queue_bytes = total
            if (total > 0) != was_backlogged and rnti in included:
                if view.cqi <= 0:
                    self._unusable += 1 if total > 0 else -1
                self._move(view, total > 0)

    def _refresh_cqi(self, rntis: Set[int], tti: int) -> None:
        cqis = self._cell.scheduling_cqis(tti)
        views = self._views
        for rnti in rntis:
            view = views[rnti]
            was_usable = view.cqi > 0
            view.cqi = cqis[rnti]
            if (view.cqi > 0) != was_usable and rnti in self.included:
                if view.queue_bytes > 0:
                    self._unusable += 1 if was_usable else -1
                    self._schedulable_stale = True
                if view.ul_buffer_bytes > 0:
                    self._ul_stale = True

    def _refresh_ul_buffer(self, rntis: Set[int], tti: int) -> None:
        ues = self._cell.ues
        for rnti in rntis:
            self._views[rnti].ul_buffer_bytes = ues[rnti].ul_backlog_bytes
        self._ul_stale = True
