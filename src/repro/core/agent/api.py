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

from typing import Callable, List, Optional

from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    UeConfigRep,
    UeStatsReport,
)
from repro.lte.enodeb import DlSchedulerHook, EnbEvent, EnodeB, UlSchedulerHook
from repro.lte.rrc import RrcState

SUBBANDS = 9
"""Subband count for 10 MHz CQI reporting (36.213 k=6 RB subbands)."""

_RRC_STATE_INDEX = {state: i for i, state in enumerate(RrcState)}

HandoverExecutor = Callable[[int, int, int, int], bool]
"""Callback ``(rnti, source_cell, target_cell, tti) -> success`` that the
deployment wires to actually move a UE between eNodeBs."""


class AgentDataPlaneApi:
    """Function-call facade over one eNodeB's data plane."""

    def __init__(self, enb: EnodeB) -> None:
        self._enb = enb
        self._handover_executor: Optional[HandoverExecutor] = None
        # Last reported channel observations per RNTI, used by
        # :meth:`probe_channel_changes` to fold purely channel-driven
        # report changes (SINR drift, neighbor CQI) into the eNodeB's
        # change-sequence machinery.
        self._channel_probe: dict = {}

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

    def get_abs_pattern(self, cell_id: int) -> List[int]:
        return sorted(self._enb.cells[cell_id].muted_subframes)

    def set_prb_cap(self, cell_id: int, cap: Optional[int]) -> None:
        """Cap (or restore) the cell's usable DL PRBs (LSA revocation)."""
        self._enb.cells[cell_id].set_prb_cap(cap)

    # -- statistics (asynchronous request/reply, Table 1 row 2) ----------

    @property
    def change_seq(self) -> int:
        """The eNodeB's monotonic per-UE state change sequence."""
        return self._enb.change_seq

    def ue_change_seqs(self) -> dict:
        """Snapshot of ``rnti -> last change sequence`` for delta
        reporting (see :meth:`repro.lte.enodeb.EnodeB.ue_change_seq`)."""
        return dict(self._enb._ue_seq)

    def probe_channel_changes(self, tti: int) -> None:
        """Fold channel-driven report changes into the change sequence.

        The eNodeB's dirty tracking covers every *data-plane* mutation,
        but the reported SINR and neighbor-cell CQI move with the
        channel alone.  Called once per report TTI, this compares each
        UE's current channel observations against the last reported
        values and marks the UE changed when they differ -- so delta
        replies stay exact under fading channels at the same per-UE
        probe cost the full snapshot already paid.
        """
        enb = self._enb
        cache = self._channel_probe
        rntis = enb.rntis()
        if len(cache) > 2 * len(rntis) + 8:
            live = set(rntis)
            for rnti in [r for r in cache if r not in live]:
                del cache[rnti]
        cache_get = cache.get
        for rnti in rntis:
            ue = enb.ue(rnti)
            entry = cache_get(rnti)
            neighbor_channels = getattr(ue, "neighbor_channels", None)
            if (entry is not None and entry[2] is ue.channel
                    and not neighbor_channels):
                # A time-invariant channel object cannot produce new
                # observations; skip the probe until it is swapped out
                # (entry[2] is only ever set for a time-invariant
                # channel) or the UE gains neighbor measurements.
                continue
            sinr_x10 = int(round(ue.measured_sinr_db(tti) * 10))
            if neighbor_channels:
                neighbor = tuple(sorted(
                    (cid, ch.cqi(tti))
                    for cid, ch in neighbor_channels.items()))
            else:
                neighbor = ()
            static = ue.channel if (not neighbor_channels and getattr(
                ue.channel, "time_invariant", False)) else None
            observed = (sinr_x10, neighbor)
            if entry is None or entry[:2] != observed:
                cache[rnti] = (sinr_x10, neighbor, static)
                enb.mark_ue_dirty(rnti)
            elif entry[2] is not static:
                cache[rnti] = (sinr_x10, neighbor, static)

    def get_ue_stats(self, tti: int,
                     rntis: Optional[List[int]] = None) -> List[UeStatsReport]:
        """Per-UE statistics snapshot (the StatsReply payload).

        One report per UE, attributed to its primary cell (a UE with
        active secondary carriers still reports once).  With *rntis*
        the snapshot covers only those UEs (a delta reply's payload);
        by default it covers every attached UE.
        """
        reports = []
        probe_cache = self._channel_probe
        for rnti in (self._enb.rntis() if rntis is None else rntis):
            cell = self._enb.primary_cell(rnti)
            cell_id = cell.cell_id
            rlc = self._enb.rlc[rnti]
            pdcp = self._enb.pdcp[rnti]
            ue = cell.ues[rnti]
            wb = cell.known_cqi.get(rnti, 0)
            harq = self._enb.harq[cell_id].entity(rnti)
            pdcp_tx = sum(s.tx_bytes for s in pdcp.stats.values())
            pdcp_rx = sum(s.rx_bytes for s in pdcp.stats.values())
            # The channel probe caches the fixed-point SINR for UEs on
            # a time-invariant channel; reuse it instead of re-deriving.
            probed = probe_cache.get(rnti)
            if probed is not None and probed[2] is ue.channel:
                sinr_x10 = probed[0]
            else:
                sinr_x10 = int(round(ue.measured_sinr_db(tti) * 10))
            # Neighbor-cell measurements exist only when the
            # deployment attached neighbor channels to the UE.
            neighbor_channels = getattr(ue, "neighbor_channels", {})
            neighbor = {cid: ch.cqi(tti)
                        for cid, ch in neighbor_channels.items()}
            reports.append(UeStatsReport(
                rnti=rnti,
                queues=rlc.queues.sizes(),
                wb_cqi=wb,
                wb_cqi_clear=cell.known_cqi_clear.get(rnti, 0),
                subband_cqi=[wb] * SUBBANDS,
                subband_sinr_db_x10=[sinr_x10] * SUBBANDS,
                harq_states=[
                    (2 if p.needs_retx else 1) if p.busy else 0
                    for p in harq.processes],
                ul_buffer_bytes=ue.ul_backlog_bytes,
                power_headroom_db=20,
                rlc_bytes_in=rlc.stats.bytes_in,
                rlc_bytes_out=rlc.stats.bytes_out,
                pdcp_tx_bytes=pdcp_tx,
                pdcp_rx_bytes=pdcp_rx,
                rx_bytes_total=ue.rx_bytes_total,
                rrc_state=_RRC_STATE_INDEX[
                    self._enb.rrc.context(rnti).state],
                neighbor_cqi=neighbor,
            ))
        return reports

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

    def subscribe_events(self, fn: Callable[[EnbEvent], None]) -> None:
        self._enb.subscribe(fn)
