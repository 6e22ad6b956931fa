"""The FlexRAN Agent API: southbound boundary to the eNodeB data plane.

This is the reproduction's analogue of the >10000 lines of C API that
the paper added over the refactored OAI eNodeB (Section 4.3.1): a
well-defined set of function calls through which *all* control-plane
interaction with the data plane happens -- obtaining configurations
and statistics, applying control decisions, and installing scheduler
hooks.  Neither the agent's control modules nor the master ever touch
:class:`~repro.lte.enodeb.EnodeB` internals directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    EventType,
    StatsFlags,
    UeConfigRep,
    UeStatsReport,
)
from repro.core.protocol.schema import UNGROUPED
from repro.lte.cell import Cell
from repro.lte.enodeb import (
    DlSchedulerHook,
    EnbEvent,
    EnbEventType,
    EnodeB,
    UlSchedulerHook,
)
from repro.lte.rrc import RrcState
from repro.lte.ue import Ue

SUBBANDS = 9
"""Subband count for 10 MHz CQI reporting (36.213 k=6 RB subbands)."""

_RRC_STATE_INDEX = {state: i for i, state in enumerate(RrcState)}

_ENB_EVENT_TYPES = {
    EnbEventType.UE_ATTACHED: EventType.UE_ATTACH,
    EnbEventType.ATTACH_FAILED: EventType.ATTACH_FAILED,
    EnbEventType.RANDOM_ACCESS: EventType.RANDOM_ACCESS,
    EnbEventType.SCHEDULING_REQUEST: EventType.SCHEDULING_REQUEST,
    EnbEventType.HANDOVER_COMPLETE: EventType.HANDOVER_COMPLETE,
}

_new = object.__new__

_NO_NEIGHBORS: Dict[int, int] = {}  # shared: records are never written

_QUEUES, _CQI, _HARQ, _RLC, _PDCP = (int(flag) for flag in (
    StatsFlags.QUEUES, StatsFlags.CQI, StatsFlags.HARQ, StatsFlags.RLC,
    StatsFlags.PDCP))
_ALL_GROUPS = UeStatsReport.ALL_GROUPS
_WHOLE = _ALL_GROUPS | UNGROUPED  # UNGROUPED: rrc_state

KIND_GROUPS = {
    "membership": _WHOLE,     # a new UE on a re-used RNTI; SCells
    "rlc": _QUEUES | _RLC,    # queues, rlc_bytes_in / _out
    "pdcp": _PDCP,            # pdcp_*_bytes, rx_bytes_total (delivery)
    "harq": _HARQ,
    "rrc": UNGROUPED,
    "cqi": _CQI,              # known CQIs; a replaced channel object
    "ul_buffer": _QUEUES,     # ul_buffer_bytes
    "view": 0,                # bearer QoS and DRX: scheduler views only
}
"""Per kind of recorded change (``lte.enodeb.CHANGE_KINDS``), the
statistics it can move: the one place a change kind meets a report
group, so nothing under ``lte/`` knows what a group is."""

HandoverExecutor = Callable[[int, int, int, int], bool]
"""Callback ``(rnti, source_cell, target_cell, tti) -> success`` that the
deployment wires to actually move a UE between eNodeBs."""


def _observe_channel(ue: Ue, tti: int) -> Tuple[int, Dict[int, int]]:
    """The channel-driven report fields of *ue* at *tti*: serving SINR
    (dB x10, fixed point) and the CQI toward each neighbor cell."""
    neighbors = ue.neighbor_channels
    return (int(round(ue.measured_sinr_db(tti) * 10)),
            {cid: ch.cqi(tti) for cid, ch in neighbors.items()}
            if neighbors else _NO_NEIGHBORS)


class AgentDataPlaneApi:
    """Function-call facade over one eNodeB's data plane."""

    def __init__(self, enb: EnodeB) -> None:
        self._enb = enb
        self._handover_executor: Optional[HandoverExecutor] = None
        # collect_ue_stats's memory: per RNTI the last record; the RNTIs
        # whose channel can move; per kind, its dirty set and group bits.
        self._records: Dict[int, UeStatsReport] = {}
        self._moving: Set[int] = set()
        self._moved: Optional[List[Tuple[Set[int], int]]] = None

    @property
    def enb_id(self) -> int:
        return self._enb.enb_id

    @property
    def cell_ids(self) -> List[int]:
        return sorted(self._enb.cells)

    # -- configuration (synchronous get/set, Table 1 row 1) --------------

    def get_cell_configs(self) -> List[CellConfigRep]:
        out = []
        for cell_id in self.cell_ids:
            cfg = self._enb.cells[cell_id].config
            out.append(CellConfigRep(
                cell_id=cell_id, n_prb_dl=cfg.n_prb_dl, n_prb_ul=cfg.n_prb_ul,
                band=cfg.band, antenna_ports=cfg.antenna_ports,
                transmission_mode=cfg.transmission_mode))
        return out

    def get_ue_configs(self) -> List[UeConfigRep]:
        out = []
        for rnti in self._enb.rntis():
            ue = self._enb.ue(rnti)
            out.append(UeConfigRep(
                rnti=rnti, imsi=ue.imsi,
                cell_id=ue.serving_cell_id or 0, labels=dict(ue.labels)))
        return out

    def set_abs_pattern(self, cell_id: int, subframes: List[int]) -> None:
        """Install an Almost-Blank Subframe pattern on a cell."""
        self._enb.cells[cell_id].set_abs_pattern(subframes)

    def set_prb_cap(self, cell_id: int, cap: Optional[int]) -> None:
        """Cap (or restore) the cell's usable DL PRBs (LSA revocation)."""
        self._enb.cells[cell_id].set_prb_cap(cap)

    # -- statistics (asynchronous request/reply, Table 1 row 2) ----------

    @property
    def change_seq(self) -> int:
        """The eNodeB's monotonic per-UE state change sequence."""
        return self._enb.change_seq

    def collect_ue_stats(
            self, tti: int,
            since_seq: int) -> List[Tuple[int, UeStatsReport]]:
        """``(seq, record)``, in RNTI order, of every UE whose sequence
        is above *since_seq* (``-1``: all) after one pass over those UEs
        and the ones whose channel can move (not ``time_invariant``, or
        neighbor channels).  Such a channel, or one whose ``cqi`` kind
        moved, is observed, and a move of what was seen folds into the
        eNodeB's sequence.  One record per UE is kept; a visit re-reads
        only the groups moved since the UE's last visit (the kinds whose
        dirty set, filled by the eNodeB's settle, holds it, through
        :data:`KIND_GROUPS`; the observation) and shares the rest.  A
        record handed out is never mutated afterwards, only replaced.
        """
        enb = self._enb
        moved = self._moved
        if moved is None:  # no record yet: every UE is built whole
            sets = {k: set() for k, bits in KIND_GROUPS.items() if bits}
            enb.settle_into(sets)
            moved = self._moved = [(sets[k], KIND_GROUPS[k]) for k in sets]
        seqs = enb.ue_change_seqs()
        records, moving = self._records, self._moving
        changed = {}
        for rnti, seq in reversed(seqs.items()):  # value order
            if seq <= since_seq:
                break
            changed[rnti] = seq
        visit = changed.keys() | moving
        out: List[Tuple[int, UeStatsReport]] = []
        for rnti in sorted(visit):
            if rnti not in seqs:
                continue  # a moving UE that left; forgotten below
            seq = seqs[rnti]
            prev = records[rnti] if rnti in records else None
            bits = _WHOLE if prev is None else 0
            for dirty, kind_bits in moved:
                if rnti in dirty:
                    bits |= kind_bits
            cell = enb.primary_cell(rnti)
            ue = cell.ues[rnti]
            observed = None
            if bits & _CQI or rnti in moving:
                observed = _observe_channel(ue, tti)
                if prev is None or observed != (
                        prev.subband_sinr_db_x10[0], prev.neighbor_cqi):
                    seq = enb.mark_ue_report_dirty(rnti)
                    bits |= _CQI
                if ue.channel.time_invariant and not ue.neighbor_channels:
                    if rnti in moving:
                        moving.discard(rnti)
                elif rnti not in moving:
                    moving.add(rnti)
            record = prev
            if bits:
                record = records[rnti] = self._build_record(
                    rnti, ue, cell, bits, observed, prev)
            if seq > since_seq:
                out.append((seq, record))
        for dirty, _ in moved:  # not clear(): since_seq skipped some
            dirty -= visit
        if len(records) > len(seqs):
            # Every attached UE has a record by now: the rest departed.
            for rnti in [r for r in records if r not in seqs]:
                del records[rnti]
                moving.discard(rnti)
        return out

    def get_ue_stats(self, tti: int) -> List[UeStatsReport]:
        """Per-UE statistics snapshot (the StatsReply payload).

        One report per attached UE, attributed to its primary cell (a
        UE with active secondary carriers still reports once).  Reads
        and changes no reporting state.
        """
        enb = self._enb
        out = []
        for rnti in enb.rntis():
            ue = enb.ue(rnti)
            out.append(self._build_record(rnti, ue, enb.primary_cell(rnti),
                                          _WHOLE, _observe_channel(ue, tti)))
        return out

    def _build_record(self, rnti: int, ue: Ue, cell: Cell, bits: int,
                      observed: Optional[Tuple[int, Dict[int, int]]],
                      prev: Optional[UeStatsReport] = None
                      ) -> UeStatsReport:
        """The one place a :class:`UeStatsReport` is assembled: *prev*
        with the groups in *bits* (``UNGROUPED``: ``rrc_state``) re-read
        and every other field shared, or, with no *prev*, a whole record
        (*bits* must then hold every group).  The CQI group carries
        *observed*, ``(sinr_x10, neighbor_cqi)``.  Each field is one
        slot store, as in the generated ``decode``: the dataclass
        ``__init__`` costs more than the walks below."""
        enb = self._enb
        record = _new(UeStatsReport)
        record.rnti = rnti
        record.groups = _ALL_GROUPS
        if bits & UNGROUPED:
            record.rrc_state = _RRC_STATE_INDEX[enb.rrc.context(rnti).state]
        else:
            record.rrc_state = prev.rrc_state
        if bits & _QUEUES:
            record.queues = enb.rlc[rnti].sizes()
            record.ul_buffer_bytes = ue.ul_backlog_bytes
        else:
            record.queues = prev.queues
            record.ul_buffer_bytes = prev.ul_buffer_bytes
        if bits & _CQI:
            known, clear = cell.known_cqi, cell.known_cqi_clear
            wb = known[rnti] if rnti in known else 0
            sinr_x10, record.neighbor_cqi = observed
            record.wb_cqi = wb
            record.wb_cqi_clear = clear[rnti] if rnti in clear else 0
            record.subband_cqi = [wb] * SUBBANDS
            record.subband_sinr_db_x10 = [sinr_x10] * SUBBANDS
            record.power_headroom_db = 20
        else:
            record.neighbor_cqi = prev.neighbor_cqi
            record.wb_cqi = prev.wb_cqi
            record.wb_cqi_clear = prev.wb_cqi_clear
            record.subband_cqi = prev.subband_cqi
            record.subband_sinr_db_x10 = prev.subband_sinr_db_x10
            record.power_headroom_db = prev.power_headroom_db
        if bits & _HARQ:
            record.harq_states = [
                (2 if p.needs_retx else 1) if p.busy else 0
                for p in enb.harq[cell.cell_id].entity(rnti).processes]
        else:
            record.harq_states = prev.harq_states
        if bits & _RLC:
            stats = enb.rlc[rnti].stats
            record.rlc_bytes_in = stats.bytes_in
            record.rlc_bytes_out = stats.bytes_out
        else:
            record.rlc_bytes_in = prev.rlc_bytes_in
            record.rlc_bytes_out = prev.rlc_bytes_out
        if bits & _PDCP:
            pdcp_tx = pdcp_rx = 0
            for bearer in enb.pdcp[rnti].stats.values():
                pdcp_tx += bearer.tx_bytes
                pdcp_rx += bearer.rx_bytes
            record.pdcp_tx_bytes = pdcp_tx
            record.pdcp_rx_bytes = pdcp_rx
            record.rx_bytes_total = ue.rx_bytes_total
        else:
            record.pdcp_tx_bytes = prev.pdcp_tx_bytes
            record.pdcp_rx_bytes = prev.pdcp_rx_bytes
            record.rx_bytes_total = prev.rx_bytes_total
        return record

    def get_cell_stats(self, tti: int) -> List[CellStatsReport]:
        out = []
        counters = self._enb.counters
        for cell_id in self.cell_ids:
            cell = self._enb.cells[cell_id]
            # Per-PRB noise+interference floor; flat in this model, but
            # reported per PRB as OAI does.
            n0 = -1050  # -105.0 dBm, x10 fixed point
            dl_used = self._enb.last_prbs_dl.get(cell_id, 0)
            ul_used = self._enb.last_prbs_ul.get(cell_id, 0)
            out.append(CellStatsReport(
                cell_id=cell_id, n_prb=cell.n_prb,
                connected_ues=len(cell.ues),
                tb_ok=counters.tb_ok, tb_err=counters.tb_err,
                dl_bytes=counters.dl_delivered_bytes,
                noise_interference_per_prb_x10=[n0] * cell.n_prb,
                dl_prb_occupancy=[1] * dl_used
                                 + [0] * (cell.n_prb - dl_used),
                ul_prb_occupancy=[1] * ul_used
                                 + [0] * (cell.n_prb - ul_used)))
        return out

    # -- commands (apply control decisions, Table 1 row 3) ---------------

    def set_dl_scheduler(self, cell_id: int, hook: DlSchedulerHook) -> None:
        """Install the active downlink scheduling VSF for a cell."""
        self._enb.dl_scheduler[cell_id] = hook

    def set_ul_scheduler(self, cell_id: int, hook: UlSchedulerHook) -> None:
        self._enb.ul_scheduler[cell_id] = hook

    def configure_bearer(self, rnti: int, lcid: int, profile) -> None:
        """Attach a QoS profile to one radio bearer."""
        self._enb.configure_bearer(rnti, lcid, profile)

    def set_drx(self, rnti: int, *, cycle_ttis: int = 0,
                on_duration_ttis: int = 0,
                inactivity_ttis: int = 0) -> None:
        """Apply a DRX command (Table 1); cycle 0 disables DRX."""
        from repro.lte.mac.drx import DrxConfig
        if cycle_ttis <= 0:
            self._enb.set_drx(rnti, None)
            return
        self._enb.set_drx(rnti, DrxConfig(
            cycle_ttis=cycle_ttis, on_duration_ttis=on_duration_ttis,
            inactivity_ttis=inactivity_ttis))

    def set_scell(self, rnti: int, scell_id: int, activate: bool,
                  *, tti: int = 0) -> None:
        """(De)activate a secondary component carrier (Section 4.2)."""
        if activate:
            self._enb.activate_scell(rnti, scell_id, tti=tti)
        else:
            self._enb.deactivate_scell(rnti, scell_id)

    def set_handover_executor(self, executor: HandoverExecutor) -> None:
        """Wire the deployment-level mechanism that moves UEs."""
        self._handover_executor = executor

    def perform_handover(self, rnti: int, source_cell: int,
                         target_cell: int, tti: int) -> bool:
        """Execute a handover *action* decided by the control plane."""
        if self._handover_executor is None:
            raise RuntimeError(
                "no handover executor wired; multi-eNodeB deployments must "
                "call set_handover_executor")
        ok = self._handover_executor(rnti, source_cell, target_cell, tti)
        return ok

    # -- event subscription (Table 1 row 4) -------------------------------

    def subscribe_events(
            self,
            fn: Callable[[EventType, int, int, Dict[str, str]], None]) -> None:
        """Deliver data-plane events as ``fn(event_type, rnti, cell_id,
        details)``, in protocol terms; eNodeB events the protocol has
        no type for (``TTI_START``) are not forwarded."""
        def forward(event: EnbEvent) -> None:
            kind = _ENB_EVENT_TYPES.get(event.type)
            if kind is not None:
                fn(kind, event.rnti or 0, event.cell_id or 0,
                   {str(k): str(v) for k, v in event.payload.items()})
        self._enb.subscribe(forward)
