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
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.lte.constants import HARQ_PROCESSES, HARQ_RTT_TTIS, MAX_HARQ_TX
from repro.lte.mac.dci import PendingRetx

FEEDBACK_DELAY_TTIS = 4


@dataclass(slots=True)
class HarqProcess:
    """State of one stop-and-wait HARQ process.

    A busy process holds its block's payload: ``split`` maps each
    bearer it carries (lcid) to its bytes, and ``first_tx_tti`` is when
    the block was first sent.
    """

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
    split: Optional[Dict[int, int]] = None
    first_tx_tti: int = -1

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
        self.split = None
        self.first_tx_tti = -1


@dataclass
class HarqDrop:
    """A transport block abandoned after exhausting retransmissions;
    *split* is its payload per bearer (lcid -> bytes)."""

    rnti: int
    pid: int
    payload_bytes: int
    lcid: int
    split: Dict[int, int]


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

    def start(self, *, pid: Optional[int], tb_bits: int, payload_bytes: int,
              cqi_used: int, n_prb: int, lcid: int, tti: int,
              split: Optional[Dict[int, int]] = None) -> HarqProcess:
        """Record a new-data transmission on a given process, or on the
        free one with the lowest pid.  *split* is the payload per bearer
        (default: all of it on *lcid*)."""
        if pid is None:
            for proc in self.processes:
                if not proc.busy:
                    break
            else:
                raise RuntimeError(
                    f"RNTI {self.rnti}: all HARQ processes busy")
        else:
            proc = self.processes[pid]
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
        proc.split = split if split is not None else {lcid: payload_bytes}
        proc.first_tx_tti = tti
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
            drop = HarqDrop(self.rnti, pid, proc.payload_bytes, proc.lcid,
                            proc.split)
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

    def in_flight(self) -> List[HarqProcess]:
        """The busy processes, oldest block first."""
        return sorted((proc for proc in self.processes if proc.busy),
                      key=_first_tx_tti)


_first_tx_tti = attrgetter("first_tx_tti")


class HarqPool:
    """HARQ entities for every UE attached to a cell; each records its
    changes through *on_change*."""

    def __init__(self, on_change: Callable[[int], None]) -> None:
        self._on_change = on_change
        #: RNTI -> entity (read-only to callers; :meth:`entity` creates).
        self.entities: Dict[int, HarqEntity] = {}
        #: RNTIs with at least one process awaiting retransmission
        #: (read-only to callers): keeps the per-TTI pending-retx sweep
        #: proportional to UEs with NACKed blocks instead of all
        #: attached UEs, and lets a caller skip it when empty.  A UE
        #: stays in the set while its retransmission is timing-ineligible
        #: (NACKed but inside the HARQ RTT).
        self.retx_rntis: set = set()

    def entity(self, rnti: int) -> HarqEntity:
        """*rnti*'s entity, created on first use."""
        if rnti not in self.entities:
            self.entities[rnti] = HarqEntity(
                rnti, self._on_change, on_retx_change=self._on_retx_change)
        return self.entities[rnti]

    def remove(self, rnti: int) -> Optional[HarqEntity]:
        """Forget *rnti*'s entity; returns it (``None``: it had none)."""
        self.retx_rntis.discard(rnti)
        return self.entities.pop(rnti, None)

    def _on_retx_change(self, entity: HarqEntity) -> None:
        if entity.has_pending_retx():
            self.retx_rntis.add(entity.rnti)
        else:
            self.retx_rntis.discard(entity.rnti)

    def all_pending_retx(self, tti: int) -> List[PendingRetx]:
        out: List[PendingRetx] = []
        for rnti in sorted(self.retx_rntis):
            out.extend(self.entities[rnti].pending_retx(tti))
        return out
