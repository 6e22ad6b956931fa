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
from typing import Callable, Dict, Optional, Tuple

from repro.lte.mac.queues import DEFAULT_LCID, QueueSet

RLC_HEADER_BYTES = 2
DEFAULT_RLC_BUFFER_BYTES = 750_000
"""Per-bearer RLC buffer of every UE, read when its entity is built:
about 250 ms of a 25 Mb/s flow.  Finite so that persistent overload
produces tail drop, which is the loss signal the TCP model needs (a
test that wants another bound, or ``None`` for none, monkeypatches
it)."""


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
    queues or the counters (the eNodeB's change record).  The backlog
    readers see (:meth:`backlog`, :meth:`sizes`) is built once per
    change and shared: every write drops it, and a snapshot handed out
    is never mutated, only replaced.
    """

    def __init__(self, rnti: int, on_change: Callable[[int], None]) -> None:
        self.rnti = rnti
        self.queues = QueueSet(limit_bytes=DEFAULT_RLC_BUFFER_BYTES)
        self.stats = RlcStats()
        self._on_change = on_change
        self._backlog: Optional[Tuple[Dict[int, int], int]] = None

    def enqueue(self, pdu_bytes: int, tti: int, lcid: int = DEFAULT_LCID) -> bool:
        """Admit one PDCP PDU; returns False on tail drop."""
        self.stats.sdus_in += 1
        self._backlog = None
        queues = self.queues.by_lcid
        queue = queues[lcid] if lcid in queues else self.queues.queue(lcid)
        accepted = queue.push(pdu_bytes, tti)
        if accepted:
            self.stats.bytes_in += pdu_bytes
        else:
            self.stats.dropped_sdus += 1
            self.stats.dropped_bytes += pdu_bytes
        self._on_change(self.rnti)
        return accepted

    def dequeue(self, max_bytes: int, tti: int, lcid: int) -> int:
        """Build MAC SDU bytes from the bearer queue (segmenting); a
        bearer that does not exist yields nothing and is not created."""
        queue = self.queues.by_lcid.get(lcid)
        if max_bytes <= RLC_HEADER_BYTES or queue is None:
            return 0
        payload = queue.pop_bytes(max_bytes - RLC_HEADER_BYTES, tti)
        if payload > 0:
            self.stats.pdus_out += 1
            self.stats.bytes_out += payload
            self._backlog = None
            self._on_change(self.rnti)
        return payload

    def dequeue_priority(self, max_bytes: int, tti: int, *,
                         prefer_lcid: Optional[int] = None) -> Dict[int, int]:
        """Drain bearers in LCID order (SRBs before DRBs) up to a budget.

        Returns a map of lcid -> bytes taken, in drain order.  LCID
        order encodes LTE's logical-channel prioritization, where
        signalling radio bearers (LCID 1-2) outrank data bearers (LCID
        >= 3).  With ``prefer_lcid``, that data bearer is drained before
        the other DRBs (QoS-targeted transport blocks); SRBs always come
        first.  Each drained bearer is one PDU with its own header; an
        empty bearer costs neither a header nor a call.
        """
        queues = self.queues.by_lcid
        order = self.queues.lcids
        if prefer_lcid in queues and prefer_lcid >= DEFAULT_LCID:
            first = 0
            while order[first] < DEFAULT_LCID:
                first += 1
            if order[first] != prefer_lcid:  # not already the first DRB
                order = order.copy()
                order.remove(prefer_lcid)
                order.insert(first, prefer_lcid)
        taken: Dict[int, int] = {}
        remaining = max_bytes
        pdus = payload = 0
        for lcid in order:
            if remaining <= RLC_HEADER_BYTES:
                break
            queue = queues[lcid]
            if queue.size_bytes:
                got = queue.pop_bytes(remaining - RLC_HEADER_BYTES, tti)
                taken[lcid] = got
                remaining -= got + RLC_HEADER_BYTES
                pdus += 1
                payload += got
        if pdus:
            stats = self.stats
            stats.pdus_out += pdus
            stats.bytes_out += payload
            self._backlog = None
            self._on_change(self.rnti)
        return taken

    def requeue_front(self, nbytes: int, tti: int, lcid: int) -> None:
        """Return HARQ-dropped payload to the head of its queue."""
        if nbytes <= 0:
            return
        self.queues.queue(lcid).push_front(nbytes, tti)
        self.stats.requeued_bytes += nbytes
        self._backlog = None
        self._on_change(self.rnti)

    def backlog(self) -> Tuple[Dict[int, int], int]:
        """``(lcid -> backlog bytes, their total)`` as of the last write:
        built on the first read after it, then the same objects for
        every reader until the next.  Read-only to callers."""
        backlog = self._backlog
        if backlog is None:
            sizes: Dict[int, int] = {}
            total = 0
            for lcid, queue in self.queues.by_lcid.items():
                sizes[lcid] = size = queue.size_bytes
                total += size
            backlog = self._backlog = (sizes, total)
        return backlog

    def sizes(self) -> Dict[int, int]:
        """lcid -> backlog bytes (the BSR payload), from :meth:`backlog`:
        one dict per change, shared by every reader and never mutated."""
        return (self._backlog or self.backlog())[0]
