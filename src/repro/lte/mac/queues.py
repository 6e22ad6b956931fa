"""Transmission queues: the backlog the MAC scheduler drains.

Each UE radio bearer owns a :class:`TransmissionQueue` of packets; the
set of queues per UE is a :class:`QueueSet`.  Queue sizes are the
centrepiece of the FlexRAN statistics reports (the paper lists
"transmission queue size" as the canonical MAC statistic, Table 1) and
of buffer status reporting toward centralized schedulers.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

DEFAULT_LCID = 3
"""Logical channel id of the default data radio bearer (DRB1)."""

SRB_LCID = 1
"""Logical channel id of signalling radio bearer 1 (RRC traffic)."""


@dataclass
class QueuedPacket:
    """One SDU waiting for transmission."""

    size_bytes: int
    enqueue_tti: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")


class TransmissionQueue:
    """FIFO byte queue with partial (segmented) dequeue.

    ``pop_bytes`` models RLC segmentation: a transport block may carry a
    fraction of the head packet, in which case the remainder stays at
    the head.  A byte limit models the finite RLC buffer whose overflow
    drops packets (tail drop) -- the loss signal the TCP model reacts
    to.
    """

    def __init__(self, *, limit_bytes: Optional[int] = None) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        self._packets: Deque[QueuedPacket] = deque()
        #: Total backlog in bytes (read-only to callers).
        self.size_bytes = 0
        self.limit_bytes = limit_bytes
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.enqueued_bytes = 0
        self.dequeued_bytes = 0

    def __bool__(self) -> bool:
        return self.size_bytes > 0

    def push(self, size_bytes: int, tti: int) -> bool:
        """Enqueue a packet; returns ``False`` (and drops) on overflow."""
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        if self.limit_bytes is not None and self.size_bytes + size_bytes > self.limit_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size_bytes
            return False
        self._packets.append(QueuedPacket(size_bytes, tti))
        self.size_bytes += size_bytes
        self.enqueued_bytes += size_bytes
        return True

    def push_front(self, size_bytes: int, tti: int) -> None:
        """Return bytes to the head of the queue (HARQ drop recovery).

        Ignores the byte limit: these bytes were already admitted once.
        """
        if size_bytes <= 0:
            return
        self._packets.appendleft(QueuedPacket(size_bytes, tti))
        self.size_bytes += size_bytes

    def pop_bytes(self, max_bytes: int, tti: int) -> int:
        """Dequeue up to *max_bytes*, segmenting the head packet.

        Returns the number of bytes actually dequeued.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        taken = 0
        while self._packets and taken < max_bytes:
            head = self._packets[0]
            room = max_bytes - taken
            if head.size_bytes <= room:
                taken += head.size_bytes
                self._packets.popleft()
            else:
                head.size_bytes -= room
                taken += room
        self.size_bytes -= taken
        self.dequeued_bytes += taken
        return taken


class QueueSet:
    """Per-UE map of logical channel id to transmission queue."""

    def __init__(self, *, limit_bytes: Optional[int] = None) -> None:
        #: lcid -> queue, in creation order (read-only to callers: only
        #: :meth:`queue` creates one).
        self.by_lcid: Dict[int, TransmissionQueue] = {}
        #: The same lcids in ascending order (read-only to callers).
        self.lcids: List[int] = []
        self._limit_bytes = limit_bytes

    def queue(self, lcid: int = DEFAULT_LCID) -> TransmissionQueue:
        """Get (creating on first use) the queue for *lcid*."""
        if lcid not in self.by_lcid:
            self.by_lcid[lcid] = TransmissionQueue(limit_bytes=self._limit_bytes)
            insort(self.lcids, lcid)
        return self.by_lcid[lcid]

    def sizes(self) -> Dict[int, int]:
        """Map of lcid -> backlog bytes (the BSR payload)."""
        return {lcid: q.size_bytes for lcid, q in self.by_lcid.items()}
