"""EPC stub: the core-network side feeding the RAN.

The paper's testbed ran openair-cn as the Evolved Packet Core; the
reproduction only needs its externally visible role -- delivering
downlink flows into eNodeB bearers (S1-U ingress) and accounting
uplink deliveries -- so this stub implements exactly that.  Every flow
waits on a timing wheel for the TTI its source next emits in, so the
TRAFFIC phase costs a call per packet, not per provisioned flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.lte.enodeb import EnodeB
from repro.lte.mac.queues import DEFAULT_LCID
from repro.traffic.generators import TrafficSource


@dataclass
class FlowStats:
    """Counters for one provisioned flow."""

    offered_packets: int = 0
    offered_bytes: int = 0
    accepted_bytes: int = 0
    dropped_bytes: int = 0


@dataclass
class _Flow:
    source: TrafficSource
    enb: EnodeB
    rnti: int
    lcid: int = DEFAULT_LCID  # downlink only
    stats: FlowStats = field(default_factory=FlowStats)


class EpcStub:
    """Routes generated traffic into eNodeBs every TTI.

    Each direction's wheel maps a TTI to the flows due then (``None``:
    added since the last tick).  A flow is visited when its source's
    ``next_emission_tti`` says it can emit; the source accounts the
    TTIs skipped.  A flow whose UE is absent is probed every TTI
    without calling its source.  A parked flow's UE must stay present
    until its next visit: in :mod:`repro` only a handover detaches a
    UE, and it re-homes the UE's flows (:meth:`rehome`) in the call.
    """

    def __init__(self) -> None:
        self._downlink, self._uplink = [], []  # every flow provisioned
        self._dl_wheel, self._ul_wheel = {}, {}

    def add_downlink(self, source: TrafficSource, enb: EnodeB, rnti: int,
                     *, lcid: int = DEFAULT_LCID) -> FlowStats:
        """Provision a downlink flow; returns its live counters."""
        flow = _Flow(source, enb, rnti, lcid)
        self._downlink.append(flow)
        self._dl_wheel.setdefault(None, []).append(flow)
        return flow.stats

    def add_uplink(self, source: TrafficSource, enb: EnodeB,
                   rnti: int) -> FlowStats:
        """Provision an uplink flow (data originates at the UE)."""
        flow = _Flow(source, enb, rnti)
        self._uplink.append(flow)
        self._ul_wheel.setdefault(None, []).append(flow)
        return flow.stats

    def _flows_of(self, enb: EnodeB, rnti: int) -> List[_Flow]:
        return [flow for flow in self._downlink + self._uplink
                if flow.enb is enb and flow.rnti == rnti]

    def rehome(self, old_enb: EnodeB, old_rnti: int,
               new_enb: EnodeB, new_rnti: int) -> int:
        """Repoint flows after a handover moved a UE; returns count."""
        moved = self._flows_of(old_enb, old_rnti)
        for flow in moved:
            flow.enb, flow.rnti = new_enb, new_rnti
        return len(moved)

    def tick(self, tti: int) -> None:
        """TRAFFIC phase: generate and deliver this TTI's packets."""
        for wheel, uplink in ((self._dl_wheel, False), (self._ul_wheel, True)):
            for flow in wheel.pop(None, []) + wheel.pop(tti, []):
                if not flow.enb.has_ue(flow.rnti):  # probe until attach
                    wheel.setdefault(tti + 1, []).append(flow)
                    continue
                packets = flow.source.packets(tti)
                due = flow.source.next_emission_tti(tti)
                wheel.setdefault(due, []).append(flow)
                stats = flow.stats
                if not uplink:
                    for size in packets:
                        stats.offered_packets += 1
                        stats.offered_bytes += size
                        if flow.enb.enqueue_dl(flow.rnti, size, tti, flow.lcid):
                            stats.accepted_bytes += size
                        else:
                            stats.dropped_bytes += size
                elif packets:
                    total = sum(packets)
                    stats.offered_packets += len(packets)
                    stats.offered_bytes += total
                    stats.accepted_bytes += total
                    flow.enb.notify_ul(flow.rnti, total, tti)
