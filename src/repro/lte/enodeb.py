"""eNodeB data plane.

After FlexRAN's refactoring, an eNodeB "only handles the data plane to
perform all the action-related functions (e.g., applying scheduling
decisions, performing handovers)" (Section 4.2).  This class is exactly
that: queues, HARQ, PHY transmission and RRC procedures, with *all*
decision logic injected from the outside through scheduler hooks.  The
FlexRAN agent installs its MAC control module's active VSF as the hook;
a vanilla (agent-less) eNodeB runs the built-in round-robin, mirroring
unmodified OAI.

Each TTI runs in two passes so multi-cell interference resolves
causally:

* :meth:`plan` -- collect HARQ feedback, advance RRC, refresh CQI
  knowledge, invoke the scheduler hook, validate the allocation and
  announce whether the cell will transmit.
* :meth:`transmit` -- apply the planned assignments against the
  *actual* channel (including what interfering cells really did),
  drive HARQ, and deliver payload to UEs.
"""

from __future__ import annotations

import enum
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple)

import numpy as np

from repro import obs as _obs
from repro.lte.cell import Cell, CellConfig
from repro.lte.mac.amc import DEFAULT_ERROR_MODEL, ErrorModel
from repro.lte.mac.dci import (
    DlAssignment,
    SchedulingContext,
    UlGrant,
    validate_allocation,
)
from repro.lte.mac.drx import DrxConfig, DrxManager
from repro.lte.mac.harq import FEEDBACK_DELAY_TTIS, HarqPool
from repro.lte.mac.queues import DEFAULT_LCID, SRB_LCID
from repro.lte.mac.schedulers import RoundRobinScheduler
from repro.lte.pdcp import PdcpEntity
from repro.lte.phy.tbs import transport_block_bits
from repro.lte.rlc import RlcEntity
from repro.lte.rrc import ATTACH_SIGNALLING_BYTES, RrcEntity, RrcEvent
from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.ue import Ue
from repro.lte.view_cache import UeViewCache

logger = logging.getLogger(__name__)

RNTI_BASE = 0x46

DlSchedulerHook = Callable[[SchedulingContext], List[DlAssignment]]
UlSchedulerHook = Callable[[SchedulingContext], List[UlGrant]]

CHANGE_KINDS = ("membership", "rlc", "pdcp", "harq", "rrc", "cqi",
                "ul_buffer", "view")
"""What a recorded UE change was a change of, one record set each: the
entity that made it (RLC, PDCP, HARQ, RRC; ``cqi`` is a cell's CQI
knowledge of the UE or a replaced channel object of it), or state the
eNodeB owns -- ``membership`` (attach, SCell (de)activation), the UE
``ul_buffer``, and the ``view``-only bearer QoS and DRX."""


class EnbEventType(enum.Enum):
    """Data-plane events surfaced to the FlexRAN agent (Table 1)."""

    RANDOM_ACCESS = "random_access"
    UE_ATTACHED = "ue_attached"
    ATTACH_FAILED = "attach_failed"
    SCHEDULING_REQUEST = "scheduling_request"
    HANDOVER_COMPLETE = "handover_complete"
    TTI_START = "tti_start"


@dataclass
class EnbEvent:
    """One event notification from the data plane."""

    type: EnbEventType
    tti: int
    rnti: Optional[int] = None
    cell_id: Optional[int] = None
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass
class MacCounters:
    """Aggregate MAC/PHY counters for one eNodeB."""

    tb_ok: int = 0
    tb_err: int = 0
    tb_dropped: int = 0
    harq_blocked: int = 0
    dl_delivered_bytes: int = 0
    ul_delivered_bytes: int = 0
    dl_assignments: int = 0
    ul_grants: int = 0


def default_ul_scheduler(ctx: SchedulingContext) -> List[UlGrant]:
    """Fair-split uplink grants across UEs with buffered UL data."""
    pending = [u for u in ctx.ues if u.ul_buffer_bytes > 0 and u.cqi > 0]
    if not pending:
        return []
    share = max(1, ctx.n_prb // len(pending))
    grants: List[UlGrant] = []
    remaining = ctx.n_prb
    for ue in sorted(pending, key=lambda u: u.rnti):
        n_prb = min(share, remaining)
        if n_prb <= 0:
            break
        grants.append(UlGrant(rnti=ue.rnti, n_prb=n_prb, cqi_used=ue.cqi))
        remaining -= n_prb
    return grants


class EnodeB:
    """One base station: cells, per-UE protocol entities, MAC engine."""

    def __init__(self, enb_id: int,
                 cell_configs: Optional[Sequence[CellConfig]] = None, *,
                 seed: int = 0,
                 error_model: ErrorModel = DEFAULT_ERROR_MODEL,
                 rlc_buffer_bytes: Optional[int] = None) -> None:
        self.enb_id = enb_id
        if cell_configs is None:
            cell_configs = [CellConfig(cell_id=enb_id * 10)]
        if not cell_configs:
            raise ValueError("an eNodeB needs at least one cell")
        # Every per-UE entity records the RNTIs it changes into the set
        # of its kind (CHANGE_KINDS); the eNodeB only what it owns.
        # Readers of sequences or views _settle them first.
        self._recorded: Tuple[Set[int], ...] = tuple(
            set() for _ in CHANGE_KINDS)
        (self._record_membership, self._record_rlc, self._record_pdcp,
         record_harq, record_rrc, record_cqi, self._record_ul_buffer,
         self._record_view) = (recorded.add for recorded in self._recorded)
        self.cells: Dict[int, Cell] = {
            cfg.cell_id: Cell(cfg, record_cqi) for cfg in cell_configs}
        self.rrc = RrcEntity(record_rrc)
        self.rrc.subscribe(self._on_rrc_event)
        self.error_model = error_model
        self._rlc_buffer_bytes = rlc_buffer_bytes

        self.rlc: Dict[int, RlcEntity] = {}
        self.pdcp: Dict[int, PdcpEntity] = {}
        self.harq: Dict[int, HarqPool] = {
            c: HarqPool(record_harq) for c in self.cells}
        self.drx = DrxManager(self._record_view)
        #: (rnti, lcid) -> QosProfile for bearers with explicit QoS.
        self.bearer_qos: Dict[Tuple[int, int], object] = {}
        self._ue_cell: Dict[int, int] = {}
        self._scells: Dict[int, set] = {}
        self._next_rnti = RNTI_BASE

        self.dl_scheduler: Dict[int, DlSchedulerHook] = {
            c: RoundRobinScheduler() for c in self.cells}
        self.ul_scheduler: Dict[int, UlSchedulerHook] = {
            c: default_ul_scheduler for c in self.cells}

        self._plan_dl: Dict[int, List[DlAssignment]] = {}
        self._plan_ul: Dict[int, List[UlGrant]] = {}
        self.last_plan_tti = -1
        self.last_prbs_dl: Dict[int, int] = {c: 0 for c in self.cells}
        self.last_prbs_ul: Dict[int, int] = {c: 0 for c in self.cells}
        # (due_tti, cell_id, rnti, pid, ok), appended by _transmit_dl in
        # due order: _process_feedback takes the due ones off the front.
        self._pending_feedback: Deque[Tuple[int, int, int, int, bool]] = deque()
        self._harq_payload: Dict[Tuple[int, int, int], Dict[int, int]] = {}

        self._rng = np.random.default_rng(seed)
        self._observers: List[Callable[[EnbEvent], None]] = []
        self.counters = MacCounters()

        self._view_cache: Dict[int, UeViewCache] = {
            c: UeViewCache(cell, self) for c, cell in self.cells.items()}
        # Settled UE changes, departures and report-only changes; per
        # attached RNTI the value of its last one (delta reports), kept
        # in value order; and per kind, the value of its last change of
        # that kind.
        self._change_seq = 0
        self._ue_seq: Dict[int, int] = {}
        self._kind_seqs: Dict[str, Dict[int, int]] = {
            kind: {} for kind in CHANGE_KINDS}
        self._settle_into = tuple(zip(self._recorded,
                                      self._kind_seqs.values()))

    # -- topology -------------------------------------------------------

    def cell(self, cell_id: Optional[int] = None) -> Cell:
        """A cell by id, or the (single) default cell."""
        if cell_id is None:
            if len(self.cells) != 1:
                raise ValueError(
                    f"eNodeB {self.enb_id} has {len(self.cells)} cells; "
                    "specify cell_id")
            return next(iter(self.cells.values()))
        return self.cells[cell_id]

    def attach_ue(self, ue: Ue, cell_id: Optional[int] = None,
                  *, tti: int = 0) -> int:
        """Admit a UE: allocate an RNTI and start random access."""
        cell = self.cell(cell_id)
        rnti = self._next_rnti
        self._next_rnti += 1
        ue.rnti = rnti
        cell.add_ue(rnti, ue)
        self._view_cache[cell.cell_id].add(rnti)
        self._ue_cell[rnti] = cell.cell_id
        self.rlc[rnti] = RlcEntity(
            rnti, self._record_rlc,
            buffer_limit_bytes=self._rlc_buffer_bytes)
        self.pdcp[rnti] = PdcpEntity(rnti, self._record_pdcp)
        self.rrc.start_attach(rnti, tti)
        cell.refresh_cqi(tti, force=True)
        self._record_membership(rnti)
        logger.info("enb %d: UE %s attached as RNTI %d on cell %d",
                    self.enb_id, ue.imsi, rnti, cell.cell_id)
        return rnti

    def detach_ue(self, rnti: int) -> Ue:
        """Remove a UE and all its state (detach or handover source)."""
        for scell_id in sorted(self._scells.pop(rnti, set())):
            self.deactivate_scell(rnti, scell_id)
        cell = self.cells[self._ue_cell.pop(rnti)]
        self._view_cache[cell.cell_id].remove(rnti)
        # Membership changed: bump the change sequence so delta stats
        # consumers notice even though the RNTI itself is gone.
        self._change_seq += 1
        self._ue_seq.pop(rnti, None)
        for seqs in self._kind_seqs.values():
            seqs.pop(rnti, None)
        ue = cell.remove_ue(rnti)
        self.drx.remove(rnti)
        for key in [k for k in self.bearer_qos if k[0] == rnti]:
            del self.bearer_qos[key]
        self.rlc.pop(rnti, None)
        self.pdcp.pop(rnti, None)
        self.harq[cell.cell_id].remove(rnti)
        self._purge_harq(cell.cell_id, rnti)
        self.rrc.release(rnti)
        ue.rnti = None
        ue.serving_cell_id = None
        logger.info("enb %d: RNTI %d detached", self.enb_id, rnti)
        return ue

    def ue(self, rnti: int) -> Ue:
        return self.cells[self._ue_cell[rnti]].ues[rnti]

    def primary_cell(self, rnti: int) -> Cell:
        """The PCell serving *rnti*."""
        return self.cells[self._ue_cell[rnti]]

    def rntis(self) -> List[int]:
        return sorted(self._ue_cell)

    def attached_ues(self) -> List[Tuple[int, Ue]]:
        """Every attached ``(rnti, ue)`` pair, in RNTI order."""
        cells = self.cells
        return [(rnti, cells[cell_id].ues[rnti])
                for rnti, cell_id in sorted(self._ue_cell.items())]

    def has_ue(self, rnti: int) -> bool:
        """O(1) attachment test (use instead of ``rnti in rntis()``)."""
        return rnti in self._ue_cell

    # -- carrier aggregation ---------------------------------------------

    def activate_scell(self, rnti: int, scell_id: int, *,
                       tti: int = 0) -> None:
        """Activate a secondary component carrier for a UE (the
        '(de)activating component carriers' action of Section 4.2)."""
        if scell_id not in self.cells:
            raise KeyError(f"no cell {scell_id} on eNodeB {self.enb_id}")
        if scell_id == self._ue_cell[rnti]:
            raise ValueError(f"cell {scell_id} is RNTI {rnti}'s PCell")
        scells = self._scells.setdefault(rnti, set())
        if scell_id in scells:
            return
        ue = self.ue(rnti)
        self.cells[scell_id].add_ue(rnti, ue, primary=False)
        self._view_cache[scell_id].add(rnti)
        self.cells[scell_id].refresh_cqi(tti, force=True)
        scells.add(scell_id)
        self._record_membership(rnti)

    def deactivate_scell(self, rnti: int, scell_id: int) -> None:
        """Deactivate a secondary carrier; no-op if not active."""
        scells = self._scells.get(rnti)
        if scells is not None:
            scells.discard(scell_id)
        cell = self.cells.get(scell_id)
        if cell is not None and rnti in cell.ues:
            self._view_cache[scell_id].remove(rnti)
            cell.remove_ue(rnti)
            self.harq[scell_id].remove(rnti)
            # Blocks in flight on the carrier go back to the head of
            # their bearers, oldest first, as a MAX_HARQ_TX drop would
            # send them; one whose pending feedback is an ACK was
            # delivered already and is only forgotten.
            rlc = self.rlc[rnti]
            tti = max(self.last_plan_tti, 0)
            for split in reversed(self._purge_harq(scell_id, rnti)):
                for lcid, nbytes in split.items():
                    rlc.requeue_front(nbytes, tti, lcid)
            self._record_membership(rnti)

    def _purge_harq(self, cell_id: int, rnti: int) -> List[Dict[int, int]]:
        """Forget *rnti*'s in-flight HARQ bookkeeping on one carrier, so
        a later reuse of the RNTI cannot receive feedback for these
        blocks.  Returns the payload splits not delivered yet, oldest
        block first."""
        delivered = set()
        kept = deque()
        for entry in self._pending_feedback:
            _, entry_cell, entry_rnti, pid, ok = entry
            if entry_cell != cell_id or entry_rnti != rnti:
                kept.append(entry)
            elif ok:
                delivered.add(pid)
        self._pending_feedback = kept
        payload = self._harq_payload
        undelivered = []
        for key in [k for k in payload if k[0] == cell_id and k[1] == rnti]:
            split = payload.pop(key)
            if key[2] not in delivered:
                undelivered.append(split)
        return undelivered

    def active_scells(self, rnti: int) -> List[int]:
        return sorted(self._scells.get(rnti, set()))

    # -- bearer QoS ---------------------------------------------------------

    def configure_bearer(self, rnti: int, lcid: int, profile) -> None:
        """Attach a :class:`~repro.lte.mac.qos.QosProfile` to a bearer."""
        if rnti not in self._ue_cell:
            raise KeyError(f"unknown RNTI {rnti}")
        if lcid < DEFAULT_LCID:
            raise ValueError(f"lcid {lcid} is a signalling bearer")
        self.bearer_qos[(rnti, lcid)] = profile
        self._record_view(rnti)

    # -- DRX ---------------------------------------------------------------

    def set_drx(self, rnti: int, config: Optional[DrxConfig]) -> None:
        """Apply a DRX command: enable with *config*, disable with None."""
        if rnti not in self._ue_cell:
            raise KeyError(f"unknown RNTI {rnti}")
        self.drx.configure(rnti, config)
        for cell_id in (self._ue_cell[rnti], *self._scells.get(rnti, ())):
            self._view_cache[cell_id].track_drx(rnti, config is not None)

    # -- change tracking -------------------------------------------------

    def _settle(self) -> None:
        """Turn the recorded RNTIs into change sequences and dirty views.

        Each recorded RNTI still attached gets the next sequence value,
        once however many kinds recorded it, which also becomes the
        value of each of those kinds' last change; its view is dirtied
        in its PCell's and every active SCell's cache.  One that left
        before settling is dropped.  No method call per RNTI: this runs
        for every cell on every TTI.
        """
        changed = set()
        for kind_recorded in self._recorded:
            if kind_recorded:
                changed |= kind_recorded
        if not changed:
            return
        ue_cell = self._ue_cell
        ue_seq = self._ue_seq
        seq = self._change_seq
        for rnti in changed:
            if rnti in ue_cell:
                seq += 1
                if rnti in ue_seq:
                    del ue_seq[rnti]  # re-inserted last: value order
                ue_seq[rnti] = seq
        self._change_seq = seq
        for kind_recorded, kind_seqs in self._settle_into:
            if kind_recorded:
                for rnti in kind_recorded:
                    if rnti in ue_seq:  # attached, so numbered above
                        kind_seqs[rnti] = ue_seq[rnti]
                kind_recorded -= kind_recorded  # clear() as an operator
        # A cell serves exactly the UEs its cache has views of, as PCell
        # or SCell, so this reaches every carrier of a UE and none of a
        # departed one.
        caches = self._view_cache
        for cell_id, cell in self.cells.items():
            caches[cell_id].dirty |= changed.intersection(cell.ues)

    def ue_change_seqs(self) -> Mapping[int, int]:
        """``rnti -> change_seq`` value of its last change, for every
        attached UE, in value order: the UEs changed since a given
        value are a tail of it (settled first; read-only to the
        caller)."""
        self._settle()
        return self._ue_seq

    def ue_kind_seqs(self) -> Mapping[str, Mapping[int, int]]:
        """Per :data:`CHANGE_KINDS` entry, ``rnti -> change_seq`` value
        of the last change of that kind, for the attached UEs that had
        one (settled first; read-only to the caller)."""
        self._settle()
        return self._kind_seqs

    def mark_ue_report_dirty(self, rnti: int) -> int:
        """Record a change only stats reports can see; return its sequence.

        The reported SINR and neighbor-cell CQIs are what the agent
        observes of the channel when it reports; no entity here holds
        them, so none can record their moving, and no :class:`UeView`
        field reads them.  This bumps *rnti*'s sequence, of no kind,
        without dirtying any view cache.
        """
        seq = self._change_seq = self._change_seq + 1
        ue_seq = self._ue_seq
        if rnti in ue_seq:
            del ue_seq[rnti]
        ue_seq[rnti] = seq
        return seq

    @property
    def change_seq(self) -> int:
        """Monotone counter of UE-state changes (0 = nothing ever)."""
        self._settle()
        return self._change_seq

    # -- events ---------------------------------------------------------

    def subscribe(self, fn: Callable[[EnbEvent], None]) -> None:
        """Register an observer (the FlexRAN agent) for data-plane events."""
        self._observers.append(fn)

    def _emit(self, event: EnbEvent) -> None:
        for fn in list(self._observers):
            fn(event)

    def _on_rrc_event(self, event: RrcEvent, rnti: int, tti: int) -> None:
        mapping = {
            RrcEvent.RANDOM_ACCESS: EnbEventType.RANDOM_ACCESS,
            RrcEvent.UE_ATTACHED: EnbEventType.UE_ATTACHED,
            RrcEvent.ATTACH_FAILED: EnbEventType.ATTACH_FAILED,
            RrcEvent.HANDOVER_COMPLETE: EnbEventType.HANDOVER_COMPLETE,
        }
        kind = mapping.get(event)
        if kind is not None:
            self._emit(EnbEvent(type=kind, tti=tti, rnti=rnti,
                                cell_id=self._ue_cell.get(rnti)))

    # -- ingress --------------------------------------------------------

    def enqueue_dl(self, rnti: int, nbytes: int, tti: int,
                   lcid: int = DEFAULT_LCID) -> bool:
        """EPC ingress: one downlink SDU toward *rnti*.

        Application bytes are conserved end to end; PDCP/RLC header
        overhead is charged against the air interface (the transport
        block budget) rather than mutating the payload stream, so
        transport-layer models see exactly what they sent.
        """
        self.pdcp[rnti].ingress(lcid, nbytes)
        return self.rlc[rnti].enqueue(nbytes, tti, lcid)

    def notify_ul(self, rnti: int, nbytes: int, tti: int) -> None:
        """A UE produced uplink data (triggers a scheduling request)."""
        ue = self.ue(rnti)
        had_backlog = ue.ul_backlog_bytes > 0
        ue.generate_ul(nbytes)
        self._record_ul_buffer(rnti)
        if not had_backlog:
            self._emit(EnbEvent(type=EnbEventType.SCHEDULING_REQUEST,
                                tti=tti, rnti=rnti,
                                cell_id=self._ue_cell[rnti]))

    # -- data-plane queries (consumed by the FlexRAN Agent API) ---------

    def queue_bytes(self, rnti: int, lcid: Optional[int] = None) -> int:
        return self.rlc[rnti].buffer_bytes(lcid)

    def build_context(self, cell_id: int, tti: int) -> SchedulingContext:
        """Scheduler-facing snapshot for one cell and TTI.

        The views and the backlogged / schedulable lists come from the
        cell's :class:`UeViewCache`, which refreshes only the UEs whose
        state changed since the previous TTI.
        """
        self._settle()
        cell = self.cells[cell_id]
        views, backlogged, schedulable = self._view_cache[cell_id].build(tti)
        if self.bearer_qos:
            view_rntis = {v.rnti for v in views}
            bearer_qos = {key: profile
                          for key, profile in self.bearer_qos.items()
                          if key[0] in view_rntis}
        else:
            bearer_qos = {}
        return SchedulingContext(
            tti=tti, n_prb=cell.n_prb, ues=views,
            pending_retx=self.harq[cell_id].all_pending_retx(tti),
            cell_id=cell_id, subframe=tti % SUBFRAMES_PER_FRAME,
            abs_subframe=cell.is_muted(tti),
            bearer_qos=bearer_qos,
            backlogged_ues=backlogged, schedulable_ues=schedulable)

    # -- per-TTI engine ---------------------------------------------------

    def plan(self, tti: int) -> None:
        """Pass 1: feedback, RRC, CQI refresh, run schedulers."""
        ob = _obs.get()
        if ob.enabled:
            with ob.tracer.span("enb", "plan", tti=tti, enb=self.enb_id):
                start = time.perf_counter()
                self._plan(tti)
                elapsed = time.perf_counter() - start
            ob.registry.histogram("enb.plan_us").observe(elapsed * 1e6)
        else:
            self._plan(tti)

    def _plan(self, tti: int) -> None:
        self._process_feedback(tti)
        self._advance_rrc(tti)
        self.drx.account_all(tti)
        self._plan_dl.clear()
        self._plan_ul.clear()
        for cell_id, cell in self.cells.items():
            cell.refresh_cqi(tti)
            ctx = self.build_context(cell_id, tti)
            n_prb = ctx.n_prb  # the cell's, read once, before any hook runs
            assignments = self.dl_scheduler[cell_id](ctx) or []
            validate_allocation(assignments, n_prb)
            grants = self.ul_scheduler[cell_id](ctx) or []
            self._plan_dl[cell_id] = assignments
            self._plan_ul[cell_id] = grants
            self.last_prbs_dl[cell_id] = sum(a.n_prb for a in assignments)
            self.last_prbs_ul[cell_id] = sum(g.n_prb for g in grants)
            cell.mark_transmission(tti, bool(assignments))
        self.last_plan_tti = tti

    def planned_cell_ids(self, tti: int) -> List[int]:
        """Cells that received a scheduler decision at *tti*.

        Empty unless :meth:`plan` ran for exactly *tti* -- the chaos
        harness's every-cell-gets-a-decision invariant reads this.
        """
        if self.last_plan_tti != tti:
            return []
        return sorted(self._plan_dl)

    def transmit(self, tti: int) -> None:
        """Pass 2: apply the plan against the actual channel."""
        ob = _obs.get()
        if ob.enabled:
            with ob.tracer.span("enb", "transmit", tti=tti,
                                enb=self.enb_id):
                start = time.perf_counter()
                self._transmit_pass(tti)
                elapsed = time.perf_counter() - start
            ob.registry.histogram("enb.transmit_us").observe(elapsed * 1e6)
        else:
            self._transmit_pass(tti)

    def _transmit_pass(self, tti: int) -> None:
        for cell_id in self.cells:
            for assignment in self._plan_dl.get(cell_id, []):
                self._transmit_dl(cell_id, assignment, tti)
            for grant in self._plan_ul.get(cell_id, []):
                self._transmit_ul(cell_id, grant, tti)

    def tick(self, tti: int) -> None:
        """Single-eNodeB convenience: plan then transmit."""
        self.plan(tti)
        self.transmit(tti)

    # -- internals --------------------------------------------------------

    def _advance_rrc(self, tti: int) -> None:
        self.rrc.check_timeouts(tti)
        for rnti in self.rrc.attaching_rntis():
            if self.rrc.setup_due(rnti, tti):
                # Attach handshake rides SRB1 through the normal
                # scheduler path; three signalling messages.
                per_msg = ATTACH_SIGNALLING_BYTES // 3
                for _ in range(3):
                    self.rlc[rnti].enqueue(per_msg, tti, SRB_LCID)

    def _process_feedback(self, tti: int) -> None:
        pending = self._pending_feedback
        while pending and pending[0][0] <= tti:
            _, cell_id, rnti, pid, ok = pending.popleft()
            entity = self.harq[cell_id].entity(rnti)
            drop = entity.feedback(pid, ok)
            key = (cell_id, rnti, pid)
            if ok:
                self._harq_payload.pop(key, None)
            elif drop is not None:
                self.counters.tb_dropped += 1
                split = self._harq_payload.pop(key, {drop.lcid: drop.payload_bytes})
                rlc = self.rlc.get(rnti)
                if rlc is not None:
                    for lcid, nbytes in split.items():
                        rlc.requeue_front(nbytes, tti, lcid)

    def _transmit_dl(self, cell_id: int, a: DlAssignment, tti: int) -> None:
        cell = self.cells[cell_id]
        if a.rnti not in cell.ues:
            return  # UE left between plan and transmit
        entity = self.harq[cell_id].entity(a.rnti)
        if a.is_retx:
            if a.harq_pid is None:
                raise ValueError("retransmission without a HARQ process id")
            proc = entity.retransmit(a.harq_pid, tti)
            payload_split = self._harq_payload.get(
                (cell_id, a.rnti, a.harq_pid), {proc.lcid: proc.payload_bytes})
            attempt = proc.attempt
            pid = proc.pid
        else:
            if entity.free_process() is None:
                self.counters.harq_blocked += 1
                return
            budget = transport_block_bits(a.cqi_used, a.n_prb) // 8
            payload_split = self.rlc[a.rnti].dequeue_priority(
                budget, tti, prefer_lcid=a.lcid)
            payload = sum(payload_split.values())
            if payload == 0:
                return
            proc = entity.start(
                pid=a.harq_pid, tb_bits=budget * 8, payload_bytes=payload,
                cqi_used=a.cqi_used, n_prb=a.n_prb,
                lcid=max(payload_split), tti=tti)
            self._harq_payload[(cell_id, a.rnti, proc.pid)] = payload_split
            attempt = 1
            pid = proc.pid

        self.counters.dl_assignments += 1
        self.drx.note_activity(a.rnti, tti)
        actual = cell.actual_cqi(a.rnti, tti)
        p_err = self.error_model.error_probability(a.cqi_used, actual, attempt)
        ok = bool(self._rng.random() >= p_err)
        self._pending_feedback.append(
            (tti + FEEDBACK_DELAY_TTIS, cell_id, a.rnti, pid, ok))
        if not ok:
            self.counters.tb_err += 1
            return
        self.counters.tb_ok += 1
        ue = cell.ues[a.rnti]
        for lcid, nbytes in sorted(payload_split.items()):
            if lcid < DEFAULT_LCID:
                self.rrc.srb_delivered(a.rnti, nbytes, tti)
            else:
                self.pdcp[a.rnti].egress(lcid, nbytes)  # stats only
                self.counters.dl_delivered_bytes += nbytes
                ue.deliver(nbytes, tti)

    def _transmit_ul(self, cell_id: int, grant: UlGrant, tti: int) -> None:
        cell = self.cells[cell_id]
        if grant.rnti not in cell.ues:
            return
        ue = cell.ues[grant.rnti]
        capacity = transport_block_bits(grant.cqi_used, grant.n_prb,
                                        uplink=True) // 8
        actual = cell.actual_cqi(grant.rnti, tti)
        p_err = self.error_model.error_probability(grant.cqi_used, actual, 1)
        sent = ue.send_ul(capacity, tti)
        if sent <= 0:
            return
        self._record_ul_buffer(grant.rnti)
        self.counters.ul_grants += 1
        if self._rng.random() >= p_err:
            self.counters.ul_delivered_bytes += sent
        else:
            # Lost UL TB: data returns to the UE's buffer (HARQ abstracted).
            ue.ul_backlog_bytes += sent
