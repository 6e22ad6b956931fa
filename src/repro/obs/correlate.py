"""xid correlator: a control command's life measured from inside.

Every protocol message already carries a transaction id (``xid``) in
its header; this module finally uses it.  The transport endpoints and
the agent/master dispatchers report per-message lifecycle stages

    enqueue -> wire -> deliver -> handle

(in TTIs: handed to the endpoint, accepted by the link, popped by the
receiving endpoint, finished by the receiving dispatcher), keyed by
``(connection, direction, message type, xid)``.  Completed records
yield the platform's own control-latency distribution -- the CDF of
Fig. 9's control-delay study measured by the platform rather than by
benchmark scaffolding.

The two directions are accounted separately: ``"ul"`` is agent to
master (reports, sync, events), ``"dl"`` is master to agent (commands,
configuration).  A message lost to fault injection is recorded as
dropped and never completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Uplink (agent -> master) and downlink (master -> agent) directions.
UPLINK = "ul"
DOWNLINK = "dl"

MAX_COMPLETED = 100_000


@dataclass
class XidRecord:
    """Lifecycle timestamps (TTIs) of one correlated message."""

    peer: str
    direction: str
    msg_type: str
    xid: int
    enqueue: Optional[int] = None
    wire: Optional[int] = None
    deliver: Optional[int] = None
    handle: Optional[int] = None
    dropped: bool = False

    @property
    def latency_ttis(self) -> int:
        """End-to-end control latency: enqueue to handle."""
        if self.enqueue is None or self.handle is None:
            raise ValueError(f"incomplete record {self}")
        return self.handle - self.enqueue


_Key = Tuple[str, str, str, int]


class XidCorrelator:
    """Accumulates per-xid lifecycle records."""

    def __init__(self) -> None:
        self._open: Dict[_Key, XidRecord] = {}
        self.completed: List[XidRecord] = []
        self.completed_dropped = 0  # completions beyond the cap
        self.orphaned = 0           # re-enqueued before completion
        self.dropped_messages = 0   # lost on the wire

    # -- stage inputs ------------------------------------------------------

    def on_enqueue(self, peer: str, direction: str, msg_type: str,
                   xid: int, tti: int) -> None:
        key = (peer, direction, msg_type, xid)
        if key in self._open:
            # An xid reused before its predecessor completed (lost
            # message, or colliding id spaces): start a fresh record.
            self.orphaned += 1
        self._open[key] = XidRecord(peer=peer, direction=direction,
                                    msg_type=msg_type, xid=xid,
                                    enqueue=tti)

    def on_wire(self, peer: str, direction: str, msg_type: str,
                xid: int, tti: int, *, dropped: bool = False) -> None:
        record = self._open.get((peer, direction, msg_type, xid))
        if record is None or record.wire is not None:
            return
        if dropped:
            record.dropped = True
            self.dropped_messages += 1
            del self._open[(peer, direction, msg_type, xid)]
            return
        record.wire = max(tti, record.enqueue or tti)

    def on_deliver(self, peer: str, direction: str, msg_type: str,
                   xid: int, tti: int) -> None:
        record = self._open.get((peer, direction, msg_type, xid))
        if record is None or record.wire is None or record.deliver is not None:
            return
        record.deliver = max(tti, record.wire)

    def on_handle(self, peer: str, direction: str, msg_type: str,
                  xid: int, tti: int) -> None:
        key = (peer, direction, msg_type, xid)
        record = self._open.get(key)
        if record is None or record.deliver is None:
            return
        record.handle = max(tti, record.deliver)
        del self._open[key]
        if len(self.completed) < MAX_COMPLETED:
            self.completed.append(record)
        else:
            self.completed_dropped += 1

    # -- queries -----------------------------------------------------------

    def records(self, direction: Optional[str] = None,
                msg_type: Optional[str] = None) -> List[XidRecord]:
        return [r for r in self.completed
                if (direction is None or r.direction == direction)
                and (msg_type is None or r.msg_type == msg_type)]

    def in_flight(self) -> int:
        return len(self._open)

    def latencies(self, direction: Optional[str] = None,
                  msg_type: Optional[str] = None) -> List[int]:
        return [r.latency_ttis
                for r in self.records(direction, msg_type)]

    def cdf(self, direction: Optional[str] = None,
            msg_type: Optional[str] = None
            ) -> List[Tuple[float, float]]:
        """Empirical control-latency CDF as (ttis, probability) pairs."""
        values = sorted(self.latencies(direction, msg_type))
        n = len(values)
        return [(float(v), (i + 1) / n) for i, v in enumerate(values)]

    def percentile(self, q: float, direction: Optional[str] = None,
                   msg_type: Optional[str] = None) -> float:
        from repro.obs.registry import percentile
        values = self.latencies(direction, msg_type)
        if not values:
            return 0.0
        return percentile(values, q)

    def summary(self) -> Dict[str, object]:
        """Plain-data digest for exporters."""
        out: Dict[str, object] = {
            "completed": len(self.completed),
            "in_flight": self.in_flight(),
            "dropped_messages": self.dropped_messages,
            "orphaned": self.orphaned,
        }
        for direction in (UPLINK, DOWNLINK):
            values = self.latencies(direction)
            out[direction] = {
                "count": len(values),
                "p50": self.percentile(50, direction),
                "p95": self.percentile(95, direction),
                "p99": self.percentile(99, direction),
                "max": float(max(values)) if values else 0.0,
            }
        return out
