"""Downlink/uplink control information: scheduling decisions.

A scheduler (whether a local VSF at the agent or a centralized
application at the master) produces :class:`DlAssignment` objects; the
eNodeB data plane *applies* them.  This split is the essence of the
paper's control/data separation: the decision structure crosses the
FlexRAN Agent API (and, for centralized scheduling, the FlexRAN
protocol) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence

from repro.lte.constants import CQI_MAX, CQI_MIN
from repro.lte.phy.cqi import validate_cqi


@dataclass
class DlAssignment:
    """One UE's downlink allocation for a single TTI."""

    rnti: int
    n_prb: int
    cqi_used: int  # MCS proxy: the CQI the MCS was selected for
    lcid: int = 3
    harq_pid: Optional[int] = None
    is_retx: bool = False
    target_tti: Optional[int] = None  # for schedule-ahead decisions

    def __post_init__(self) -> None:
        cqi = self.cqi_used  # a valid plain int is settled inline
        if type(cqi) is not int or not CQI_MIN <= cqi <= CQI_MAX:
            validate_cqi(cqi)
        if self.n_prb <= 0:
            raise ValueError(f"assignment must use >= 1 PRB, got {self.n_prb}")
        if self.rnti <= 0:
            raise ValueError(f"invalid RNTI {self.rnti}")


@dataclass
class UlGrant:
    """One UE's uplink grant for a single TTI."""

    rnti: int
    n_prb: int
    cqi_used: int
    target_tti: Optional[int] = None

    def __post_init__(self) -> None:
        cqi = self.cqi_used  # as in DlAssignment
        if type(cqi) is not int or not CQI_MIN <= cqi <= CQI_MAX:
            validate_cqi(cqi)
        if self.n_prb <= 0:
            raise ValueError(f"grant must use >= 1 PRB, got {self.n_prb}")


@dataclass(slots=True)
class UeView:
    """Per-UE state snapshot handed to schedulers.

    This is the scheduler-facing summary of the data-plane state: queue
    backlog, the CQI known to the eNodeB (which may lag the true
    channel), and arbitrary labels (operator slice, premium/secondary
    group) used by the RAN sharing use case.
    """

    rnti: int
    queue_bytes: int
    cqi: int
    labels: Dict[str, str] = field(default_factory=dict)
    ul_buffer_bytes: int = 0
    #: Per-bearer backlog (lcid -> bytes) for QoS-aware schedulers.
    queues: Dict[int, int] = field(default_factory=dict)


@dataclass
class PendingRetx:
    """A HARQ process awaiting retransmission."""

    rnti: int
    harq_pid: int
    n_prb: int
    cqi_used: int
    tb_bits: int
    attempt: int


@dataclass
class SchedulingContext:
    """Everything a downlink scheduler may consult for one TTI."""

    tti: int
    n_prb: int
    ues: List[UeView]
    pending_retx: List[PendingRetx] = field(default_factory=list)
    cell_id: int = 0
    subframe: int = 0
    abs_subframe: bool = False  # Almost-Blank Subframe indicator (eICIC)
    #: (rnti, lcid) -> QoS profile of configured bearers (see
    #: :mod:`repro.lte.mac.qos`); empty when no QoS is provisioned.
    bearer_qos: Dict = field(default_factory=dict)
    # Memos behind backlogged() / candidates() / ul_backlogged().  A
    # context describes one (cell, TTI) snapshot -- UE state does not
    # change while schedulers consult it -- so each is computed at most
    # once per TTI even when several algorithm passes (slices, inner
    # policies) run over the same context; a builder that already keeps
    # the lists (the eNodeB's view cache) passes them in.
    backlogged_ues: Optional[List[UeView]] = field(
        default=None, repr=False, compare=False)
    schedulable_ues: Optional[List[UeView]] = field(
        default=None, repr=False, compare=False)
    ul_backlogged_ues: Optional[List[UeView]] = field(
        default=None, repr=False, compare=False)

    def ue(self, rnti: int) -> Optional[UeView]:
        """Find the view for *rnti*, or ``None``."""
        for view in self.ues:
            if view.rnti == rnti:
                return view
        return None

    def backlogged(self) -> List[UeView]:
        """UEs with downlink data waiting, in RNTI order.

        The list is memoized; callers must treat it as read-only (take
        a copy before reordering or mutating).
        """
        if self.backlogged_ues is None:
            self.backlogged_ues = sorted(
                (u for u in self.ues if u.queue_bytes > 0),
                key=lambda u: u.rnti)
        return self.backlogged_ues

    def candidates(self, exclude_rntis: Collection[int] = ()) -> List[UeView]:
        """Schedulable new-data UEs: backlogged with a usable CQI.

        The base set is memoized per context; *exclude_rntis* (e.g.
        UEs already holding a HARQ retransmission this TTI) is applied
        per call.  Always returns a fresh list the caller may reorder.
        """
        base = self.schedulable_ues
        if base is None:
            base = [u for u in self.backlogged() if u.cqi > 0]
            self.schedulable_ues = base
        if exclude_rntis:
            return [u for u in base if u.rnti not in exclude_rntis]
        return list(base)

    def ul_backlogged(self) -> List[UeView]:
        """UEs with uplink data and a usable CQI, in RNTI order (memoized;
        read-only like :meth:`backlogged`)."""
        if self.ul_backlogged_ues is None:
            self.ul_backlogged_ues = sorted(
                (u for u in self.ues if u.ul_buffer_bytes > 0 and u.cqi > 0),
                key=lambda u: u.rnti)
        return self.ul_backlogged_ues


def validate_allocation(assignments: Sequence[DlAssignment], n_prb: int) -> int:
    """Return the PRBs *assignments* use; raise ``ValueError`` if they
    oversubscribe the cell, collide, or name a retransmission without
    its HARQ process.

    The eNodeB data plane calls this before applying decisions, so a
    buggy (or malicious) pushed VSF cannot corrupt the MAC state -- the
    closest analogue of the paper's sandboxing discussion that a
    simulator can enforce.  One walk: an oversubscription is reported
    before a collision or a retransmission without a process.
    """
    used = 0
    seen = {}  # as a set: a store is not a call, set.add is
    fault = None
    for a in assignments:
        used += a.n_prb
        if fault is None:
            key = (a.rnti, a.lcid, a.is_retx, a.harq_pid)
            if key in seen:
                fault = f"duplicate assignment for RNTI {a.rnti}"
            elif a.is_retx and a.harq_pid is None:
                fault = "retransmission without a HARQ process id"
            seen[key] = None
    if used > n_prb:
        raise ValueError(
            f"allocation uses {used} PRBs but the cell has only {n_prb}")
    if fault is not None:
        raise ValueError(fault)
    return used
