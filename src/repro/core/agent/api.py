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

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    EventType,
    UeConfigRep,
    UeStatsReport,
)
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

_ALL_GROUPS = UeStatsReport.ALL_GROUPS
"""A record built here is whole: it carries every statistic group."""

_NO_NEIGHBORS: Dict[int, int] = {}
"""What a row without neighbor channels remembers as observed (shared:
one empty dict per UE would be kept alive for nothing)."""

HandoverExecutor = Callable[[int, int, int, int], bool]
"""Callback ``(rnti, source_cell, target_cell, tti) -> success`` that the
deployment wires to actually move a UE between eNodeBs."""


def _observe_channel(ue: Ue, tti: int) -> Tuple[int, Dict[int, int]]:
    """The channel-driven report fields of *ue* at *tti*: serving SINR
    (dB x10, fixed point) and the CQI toward each neighbor cell."""
    neighbors = ue.neighbor_channels
    return (int(round(ue.measured_sinr_db(tti) * 10)),
            {cid: ch.cqi(tti) for cid, ch in neighbors.items()}
            if neighbors else {})


class AgentDataPlaneApi:
    """Function-call facade over one eNodeB's data plane."""

    def __init__(self, enb: EnodeB) -> None:
        self._enb = enb
        self._handover_executor: Optional[HandoverExecutor] = None
        # :meth:`collect_ue_stats`'s memory, per RNTI:
        # ``(static_channel, sinr_x10, neighbor_cqi, record, seq)``.
        # The first three are the last channel observation, with
        # ``static_channel`` the channel object it stays valid for
        # (time-invariant, no neighbor channels) or None; such a row
        # keeps no record.  Otherwise ``record`` is the last record
        # built (None until one was needed) and ``seq`` the UE's change
        # sequence it stands for.
        self._rows: Dict[int, tuple] = {}

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
        """One pass over the attached UEs for a report TTI.

        Visits each UE once in RNTI order: observes its channel, folds
        a channel-only change (SINR drift, neighbor CQI) into the
        eNodeB's change sequence, and returns ``(seq, record)`` for
        every UE whose sequence is now above *since_seq* (``-1``: all
        of them).  A UE on a time-invariant channel object with no
        neighbor channels is observed once and then skipped until the
        channel is swapped out or the data plane changes it.

        Where the channel can move without the data plane, the last
        record is retained with the sequence it stands for: a
        channel-only change copies it with the fresh channel fields,
        a data-plane change (the sequence moved on) rebuilds it.  A
        record handed out is never mutated afterwards, only replaced.
        """
        enb = self._enb
        rows = self._rows
        rows_get = rows.get
        seqs = enb.ue_change_seqs()
        build = self._build_record
        out: List[Tuple[int, UeStatsReport]] = []
        ues = enb.attached_ues()
        for rnti, ue in ues:
            row = rows_get(rnti)
            channel = ue.channel
            neighbors = ue.neighbor_channels
            if row is not None and row[0] is channel and not neighbors:
                # Static channel, observed before (row[1] is its SINR).
                seq = seqs[rnti]
                if seq > since_seq:
                    out.append((seq, build(rnti, ue, row[1], {})))
                continue
            sinr_x10, neighbor_cqi = _observe_channel(ue, tti)
            seq = seqs[rnti]
            record = None
            moved = True
            if row is not None:
                _, last_sinr_x10, last_neighbor_cqi, kept, kept_seq = row
                moved = (sinr_x10 != last_sinr_x10
                         or neighbor_cqi != last_neighbor_cqi)
                if kept_seq == seq:
                    # The data plane has not touched the UE since.
                    if not moved:
                        record = kept
                    elif kept is not None:
                        record = _new(UeStatsReport)
                        record.__dict__ = {
                            **kept.__dict__,
                            "subband_sinr_db_x10": [sinr_x10] * SUBBANDS,
                            "neighbor_cqi": neighbor_cqi}
            if moved:
                seq = enb.mark_ue_report_dirty(rnti)
            if seq > since_seq:
                if record is None:
                    record = build(rnti, ue, sinr_x10, neighbor_cqi)
                out.append((seq, record))
            if channel.time_invariant and not neighbors:
                rows[rnti] = (channel, sinr_x10, _NO_NEIGHBORS, None, 0)
            else:
                rows[rnti] = (None, sinr_x10, neighbor_cqi, record, seq)
        if len(rows) > len(ues):
            # Every attached UE has a row by now, so the surplus is
            # departed RNTIs.
            live = {rnti for rnti, _ in ues}
            for rnti in [r for r in rows if r not in live]:
                del rows[rnti]
        return out

    def get_ue_stats(self, tti: int) -> List[UeStatsReport]:
        """Per-UE statistics snapshot (the StatsReply payload).

        One report per attached UE, attributed to its primary cell (a
        UE with active secondary carriers still reports once).  Reads
        and changes no reporting state.
        """
        return [self._build_record(rnti, ue, *_observe_channel(ue, tti))
                for rnti, ue in self._enb.attached_ues()]

    def _build_record(self, rnti: int, ue: Ue, sinr_x10: int,
                      neighbor_cqi: Dict[int, int]) -> UeStatsReport:
        """The one place a :class:`UeStatsReport` is assembled.

        Fills ``__dict__`` directly, as the generated ``decode`` does:
        the dataclass ``__init__`` costs more than the walks below.
        """
        enb = self._enb
        cell = enb.primary_cell(rnti)
        rlc = enb.rlc[rnti]
        pdcp_tx = pdcp_rx = 0
        for bearer in enb.pdcp[rnti].stats.values():
            pdcp_tx += bearer.tx_bytes
            pdcp_rx += bearer.rx_bytes
        wb = cell.known_cqi.get(rnti, 0)
        record = _new(UeStatsReport)
        record.__dict__ = {
            "rnti": rnti,
            "groups": _ALL_GROUPS,
            "rrc_state": _RRC_STATE_INDEX[enb.rrc.context(rnti).state],
            "queues": rlc.queues.sizes(),
            "ul_buffer_bytes": ue.ul_backlog_bytes,
            "wb_cqi": wb,
            "wb_cqi_clear": cell.known_cqi_clear.get(rnti, 0),
            "subband_cqi": [wb] * SUBBANDS,
            "subband_sinr_db_x10": [sinr_x10] * SUBBANDS,
            "power_headroom_db": 20,
            "neighbor_cqi": neighbor_cqi,
            "harq_states": [
                (2 if p.needs_retx else 1) if p.busy else 0
                for p in enb.harq[cell.cell_id].entity(rnti).processes],
            "rlc_bytes_in": rlc.stats.bytes_in,
            "rlc_bytes_out": rlc.stats.bytes_out,
            "pdcp_tx_bytes": pdcp_tx,
            "pdcp_rx_bytes": pdcp_rx,
            "rx_bytes_total": ue.rx_bytes_total,
        }
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

    def queue_bytes(self, rnti: int) -> int:
        return self._enb.queue_bytes(rnti)

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
