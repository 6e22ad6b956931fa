"""Bearer QoS: QCI classes, GBR token buckets, a QoS-aware scheduler.

LTE attaches a QoS Class Identifier to every bearer (23.203): GBR
classes carry a guaranteed bit rate (voice, streaming), non-GBR
classes are prioritized best effort.  The FlexRAN control plane sets
bearer profiles through the ordinary configuration path and can swap
in the :class:`QosScheduler` VSF, which serves GBR bearers from
priority-ordered token buckets before sharing the remaining carrier
fairly — the standard two-phase QoS scheduling structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.mac.schedulers import (
    FairShareScheduler,
    Scheduler,
    prbs_for_queue,
    retransmissions_first,
)

# 23.203 Table 6.1.7: QCI -> (resource type, priority).  Lower priority
# value = served earlier.
QCI_TABLE: Dict[int, Tuple[str, int]] = {
    1: ("GBR", 2),    # conversational voice
    2: ("GBR", 4),    # conversational video
    3: ("GBR", 3),    # real-time gaming
    4: ("GBR", 5),    # buffered streaming
    5: ("NGBR", 1),   # IMS signalling
    6: ("NGBR", 6),
    7: ("NGBR", 7),
    8: ("NGBR", 8),
    9: ("NGBR", 9),   # default bearer
}


@dataclass(frozen=True)
class QosProfile:
    """QoS configuration of one radio bearer."""

    qci: int
    gbr_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.qci not in QCI_TABLE:
            raise ValueError(f"unknown QCI {self.qci}; known: "
                             f"{sorted(QCI_TABLE)}")
        resource_type, _ = QCI_TABLE[self.qci]
        if resource_type == "GBR":
            if self.gbr_mbps is None or self.gbr_mbps <= 0:
                raise ValueError(
                    f"QCI {self.qci} is a GBR class and needs gbr_mbps > 0")
        elif self.gbr_mbps is not None:
            raise ValueError(
                f"QCI {self.qci} is non-GBR; gbr_mbps must be None")

    @property
    def is_gbr(self) -> bool:
        return QCI_TABLE[self.qci][0] == "GBR"

    @property
    def priority(self) -> int:
        return QCI_TABLE[self.qci][1]


DEFAULT_PROFILE = QosProfile(qci=9)
"""The default bearer: non-GBR, lowest priority."""

TOKEN_BUCKET_BURST_MS = 20
"""A GBR bucket may accumulate up to this many milliseconds worth of
its guaranteed rate (jitter absorption)."""


class QosScheduler(Scheduler):
    """Two-phase QoS scheduling: GBR buckets first, fair share after.

    Phase 1 walks GBR bearers in QCI-priority order and allocates each
    up to its token-bucket credit (tokens accrue at the guaranteed
    rate).  Phase 2 splits the remaining PRBs fairly over all remaining
    backlog.  Bearer profiles arrive through the scheduling context
    (``ctx.bearer_qos``), configured over the FlexRAN protocol.
    """

    name = "qos_aware"

    def __init__(self) -> None:
        super().__init__()
        self.parameters = {"burst_ms": TOKEN_BUCKET_BURST_MS}
        self._credits: Dict[Tuple[int, int], float] = {}
        self._last_tti: Optional[int] = None
        self._phase2 = FairShareScheduler()

    def _accrue(self, ctx: SchedulingContext) -> None:
        elapsed = 1 if self._last_tti is None else max(
            1, ctx.tti - self._last_tti)
        self._last_tti = ctx.tti
        burst_ms = float(self.parameters["burst_ms"])
        for key, profile in ctx.bearer_qos.items():
            if not profile.is_gbr:
                continue
            per_tti = profile.gbr_mbps * 125.0  # bytes per ms
            cap = per_tti * burst_ms
            credit = self._credits.get(key, 0.0)
            self._credits[key] = min(cap, credit + per_tti * elapsed)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        self._accrue(ctx)
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
        served_bytes: Dict[int, int] = {}

        # Phase 1: GBR bearers by priority, then (rnti, lcid) for ties.
        gbr = sorted(
            ((profile.priority, rnti, lcid, profile)
             for (rnti, lcid), profile in ctx.bearer_qos.items()
             if profile.is_gbr),
            key=lambda item: item[:3])
        for _, rnti, lcid, profile in gbr:
            if remaining <= 0:
                break
            if rnti in retx_rntis:
                continue
            ue = ctx.ue(rnti)
            if ue is None or ue.cqi <= 0:
                continue
            backlog = ue.queues.get(lcid, 0)
            credit = int(self._credits.get((rnti, lcid), 0.0))
            grant_bytes = min(backlog, credit)
            if grant_bytes <= 0:
                continue
            n_prb = min(prbs_for_queue(ue.cqi, grant_bytes), remaining)
            if n_prb <= 0:
                continue
            out.append(DlAssignment(rnti=rnti, n_prb=n_prb,
                                    cqi_used=ue.cqi,
                                    lcid=lcid))
            self._credits[(rnti, lcid)] = max(
                0.0, self._credits[(rnti, lcid)] - grant_bytes)
            served_bytes[rnti] = served_bytes.get(rnti, 0) + grant_bytes
            remaining -= n_prb

        # Phase 2: fair share of the rest over UEs without a phase-1
        # assignment this TTI (a GBR-served UE's best-effort traffic
        # competes again next TTI).
        if remaining > 0:
            leftovers: List[UeView] = []
            for ue in ctx.ues:
                if (ue.rnti in retx_rntis or ue.cqi <= 0
                        or ue.rnti in served_bytes):
                    continue
                if ue.queue_bytes <= 0:
                    continue
                leftovers.append(ue)
            if leftovers:
                sub = SchedulingContext(
                    tti=ctx.tti, n_prb=remaining, ues=leftovers,
                    pending_retx=[], cell_id=ctx.cell_id,
                    subframe=ctx.subframe)
                out.extend(self._phase2.schedule(sub))
        return out
