"""Hybrid ARQ: per-UE stop-and-wait processes with FDD timing.

Each UE runs :data:`~repro.lte.constants.HARQ_PROCESSES` parallel
processes.  A transport block transmitted at TTI *n* receives ACK/NACK
feedback at *n + 4* and, if negative, becomes eligible for
retransmission at *n + 8* (the FDD HARQ round trip).  After
:data:`~repro.lte.constants.MAX_HARQ_TX` attempts the block is dropped
and its bytes are returned to the radio-bearer queue (an RLC-level
recovery abstraction that keeps goodput accounting honest without
modelling RLC AM re-segmentation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.lte.constants import HARQ_PROCESSES, HARQ_RTT_TTIS, MAX_HARQ_TX
from repro.lte.mac.dci import PendingRetx

FEEDBACK_DELAY_TTIS = 4


@dataclass
class HarqProcess:
    """State of one stop-and-wait HARQ process."""

    pid: int
    busy: bool = False
    tb_bits: int = 0
    payload_bytes: int = 0
    lcid: int = 3
    cqi_used: int = 0
    n_prb: int = 0
    attempt: int = 0
    last_tx_tti: int = -1
    awaiting_feedback: bool = False
    needs_retx: bool = False

    def reset(self) -> None:
        self.busy = False
        self.tb_bits = 0
        self.payload_bytes = 0
        self.cqi_used = 0
        self.n_prb = 0
        self.attempt = 0
        self.last_tx_tti = -1
        self.awaiting_feedback = False
        self.needs_retx = False


@dataclass
class HarqDrop:
    """A transport block abandoned after exhausting retransmissions."""

    rnti: int
    pid: int
    payload_bytes: int
    lcid: int


class HarqEntity:
    """All HARQ processes of a single UE.

    *on_change* is called with the RNTI whenever a transmission or
    feedback changes a process.
    """

    def __init__(self, rnti: int, on_change: Callable[[int], None],
                 on_retx_change=None) -> None:
        self.rnti = rnti
        self._on_change = on_change
        self.processes: List[HarqProcess] = [
            HarqProcess(pid) for pid in range(HARQ_PROCESSES)]
        self.acked_blocks = 0
        self.nacked_blocks = 0
        self.dropped_blocks = 0
        # Processes holding a NACKed block (busy and needs_retx).  Only
        # a non-final NACK raises it and only a retransmission lowers
        # it: an ACK or a drop resets a process that was awaiting
        # feedback, which never needs a retransmission at that moment.
        self._retx_count = 0
        # Invoked when that count leaves or reaches zero; the owning
        # pool uses it to maintain its retx-candidate set.
        self._on_retx_change = on_retx_change

    def has_pending_retx(self) -> bool:
        """Whether any process holds a NACKed block (timing aside)."""
        return self._retx_count > 0

    def free_process(self) -> Optional[HarqProcess]:
        """A process available for new data, or ``None`` if all busy."""
        for proc in self.processes:
            if not proc.busy:
                return proc
        return None

    def start(self, *, pid: Optional[int], tb_bits: int, payload_bytes: int,
              cqi_used: int, n_prb: int, lcid: int, tti: int) -> HarqProcess:
        """Record a new-data transmission on a (given or free) process."""
        proc = self.processes[pid] if pid is not None else self.free_process()
        if proc is None:
            raise RuntimeError(f"RNTI {self.rnti}: all HARQ processes busy")
        if proc.busy:
            raise RuntimeError(
                f"RNTI {self.rnti}: HARQ process {proc.pid} already busy")
        proc.busy = True
        proc.tb_bits = tb_bits
        proc.payload_bytes = payload_bytes
        proc.cqi_used = cqi_used
        proc.n_prb = n_prb
        proc.lcid = lcid
        proc.attempt = 1
        proc.last_tx_tti = tti
        proc.awaiting_feedback = True
        proc.needs_retx = False
        self._on_change(self.rnti)
        return proc

    def retransmit(self, pid: int, tti: int) -> HarqProcess:
        """Record a retransmission of the block held by process *pid*."""
        proc = self.processes[pid]
        if not proc.busy or not proc.needs_retx:
            raise RuntimeError(
                f"RNTI {self.rnti}: HARQ process {pid} has no pending retx")
        proc.attempt += 1
        proc.last_tx_tti = tti
        proc.awaiting_feedback = True
        proc.needs_retx = False
        self._retx_count -= 1
        if self._retx_count == 0 and self._on_retx_change is not None:
            self._on_retx_change(self)
        self._on_change(self.rnti)
        return proc

    def feedback(self, pid: int, ok: bool) -> Optional[HarqDrop]:
        """Apply ACK/NACK to process *pid*.

        Returns a :class:`HarqDrop` if a NACK exhausted the attempt
        budget, else ``None``.
        """
        proc = self.processes[pid]
        if not proc.awaiting_feedback:
            raise RuntimeError(
                f"RNTI {self.rnti}: unexpected HARQ feedback on process {pid}")
        proc.awaiting_feedback = False
        self._on_change(self.rnti)
        if ok:
            self.acked_blocks += 1
            proc.reset()
            return None
        self.nacked_blocks += 1
        if proc.attempt >= MAX_HARQ_TX:
            self.dropped_blocks += 1
            drop = HarqDrop(self.rnti, pid, proc.payload_bytes, proc.lcid)
            proc.reset()
            return drop
        proc.needs_retx = True
        self._retx_count += 1
        if self._retx_count == 1 and self._on_retx_change is not None:
            self._on_retx_change(self)
        return None

    def pending_retx(self, tti: int) -> List[PendingRetx]:
        """Processes eligible for retransmission at *tti* (FDD timing)."""
        out = []
        for proc in self.processes:
            if (proc.busy and proc.needs_retx
                    and tti - proc.last_tx_tti >= HARQ_RTT_TTIS):
                out.append(PendingRetx(
                    rnti=self.rnti, harq_pid=proc.pid, n_prb=proc.n_prb,
                    cqi_used=proc.cqi_used, tb_bits=proc.tb_bits,
                    attempt=proc.attempt + 1))
        return out


class HarqPool:
    """HARQ entities for every UE attached to a cell; each records its
    changes through *on_change*."""

    def __init__(self, on_change: Callable[[int], None]) -> None:
        self._on_change = on_change
        self._entities: Dict[int, HarqEntity] = {}
        # RNTIs with at least one process awaiting retransmission:
        # keeps the per-TTI pending-retx sweep proportional to UEs
        # with NACKed blocks instead of all attached UEs.  A UE stays
        # in the set while its retransmission is timing-ineligible
        # (NACKed but inside the HARQ RTT).
        self._retx_rntis: set = set()

    def entity(self, rnti: int) -> HarqEntity:
        if rnti not in self._entities:
            self._entities[rnti] = HarqEntity(
                rnti, self._on_change, on_retx_change=self._on_retx_change)
        return self._entities[rnti]

    def remove(self, rnti: int) -> None:
        self._entities.pop(rnti, None)
        self._retx_rntis.discard(rnti)

    def _on_retx_change(self, entity: HarqEntity) -> None:
        if entity.has_pending_retx():
            self._retx_rntis.add(entity.rnti)
        else:
            self._retx_rntis.discard(entity.rnti)

    def all_pending_retx(self, tti: int) -> List[PendingRetx]:
        if not self._retx_rntis:
            return []
        out: List[PendingRetx] = []
        for rnti in sorted(self._retx_rntis):
            out.extend(self._entities[rnti].pending_retx(tti))
        return out
