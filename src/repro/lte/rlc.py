"""RLC: per-bearer transmission buffering and segmentation.

The Radio Link Control entity owns the transmission queue the MAC
scheduler drains.  Its queue sizes are *the* statistic a centralized
FlexRAN scheduler lives on (buffer status reports, Table 1 and
Section 5.2.1).  Unacknowledged-mode segmentation is modelled by the
byte-granular ``pop_bytes`` of the underlying queue; acknowledged-mode
loss recovery is approximated by re-queueing HARQ-dropped payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.lte.mac.queues import DEFAULT_LCID, QueueSet, TransmissionQueue

RLC_HEADER_BYTES = 2
DEFAULT_RLC_BUFFER_BYTES = 750_000
"""Default per-UE RLC buffer: about 250 ms of a 25 Mb/s flow.  Finite so
that persistent overload produces tail drop, which is the loss signal
the TCP model needs."""


@dataclass
class RlcStats:
    """Per-UE RLC counters exposed through the agent API."""

    sdus_in: int = 0
    bytes_in: int = 0
    pdus_out: int = 0
    bytes_out: int = 0
    dropped_sdus: int = 0
    dropped_bytes: int = 0
    requeued_bytes: int = 0


class RlcEntity:
    """All RLC bearers of one UE.

    *on_change* is called with the RNTI whenever a method changes the
    queues or the counters (the eNodeB's change record).
    """

    def __init__(self, rnti: int, on_change: Callable[[int], None], *,
                 buffer_limit_bytes: Optional[int] = DEFAULT_RLC_BUFFER_BYTES) -> None:
        self.rnti = rnti
        self.queues = QueueSet(limit_bytes=buffer_limit_bytes)
        self.stats = RlcStats()
        self._on_change = on_change

    def enqueue(self, pdu_bytes: int, tti: int, lcid: int = DEFAULT_LCID) -> bool:
        """Admit one PDCP PDU; returns False on tail drop."""
        self.stats.sdus_in += 1
        accepted = self.queues.queue(lcid).push(pdu_bytes, tti)
        if accepted:
            self.stats.bytes_in += pdu_bytes
        else:
            self.stats.dropped_sdus += 1
            self.stats.dropped_bytes += pdu_bytes
        self._on_change(self.rnti)
        return accepted

    def dequeue(self, max_bytes: int, tti: int, lcid: int) -> int:
        """Build MAC SDU bytes from the bearer queue (segmenting)."""
        if max_bytes <= RLC_HEADER_BYTES:
            return 0
        payload = self.queues.queue(lcid).pop_bytes(max_bytes - RLC_HEADER_BYTES, tti)
        if payload > 0:
            self.stats.pdus_out += 1
            self.stats.bytes_out += payload
            self._on_change(self.rnti)
        return payload

    def dequeue_priority(self, max_bytes: int, tti: int, *,
                         prefer_lcid: Optional[int] = None) -> Dict[int, int]:
        """Drain bearers in LCID order (SRBs before DRBs) up to a budget.

        Returns a map of lcid -> bytes taken.  LCID order encodes LTE's
        logical-channel prioritization, where signalling radio bearers
        (LCID 1-2) outrank data bearers (LCID >= 3).  With
        ``prefer_lcid``, that data bearer is drained before the other
        DRBs (QoS-targeted transport blocks); SRBs always come first.
        """
        taken: Dict[int, int] = {}
        remaining = max_bytes
        order = self.queues.lcids()
        if prefer_lcid is not None and prefer_lcid in order:
            srbs = [l for l in order if l < 3]
            drbs = [l for l in order if l >= 3 and l != prefer_lcid]
            order = srbs + [prefer_lcid] + drbs
        for lcid in order:
            if remaining <= RLC_HEADER_BYTES:
                break
            got = self.dequeue(remaining, tti, lcid)
            if got > 0:
                taken[lcid] = got
                remaining -= got + RLC_HEADER_BYTES
        return taken

    def requeue_front(self, nbytes: int, tti: int, lcid: int) -> None:
        """Return HARQ-dropped payload to the head of its queue."""
        if nbytes <= 0:
            return
        self.queues.queue(lcid).push_front(nbytes, tti)
        self.stats.requeued_bytes += nbytes
        self._on_change(self.rnti)

    def buffer_bytes(self, lcid: Optional[int] = None) -> int:
        """Current backlog, per bearer or total."""
        if lcid is None:
            return self.queues.total_bytes()
        return self.queues.queue(lcid).size_bytes

    def queue(self, lcid: int = DEFAULT_LCID) -> TransmissionQueue:
        """Direct access to a bearer queue (tests): a change made through
        it is not recorded."""
        return self.queues.queue(lcid)
