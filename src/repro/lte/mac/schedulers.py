"""Downlink MAC scheduling algorithms.

These are the *pure decision algorithms*: given a
:class:`~repro.lte.mac.dci.SchedulingContext` they return a list of
:class:`~repro.lte.mac.dci.DlAssignment`.  In FlexRAN terms the same
algorithm can run in three places -- as a local VSF at the agent, as a
centralized application at the master, or be pushed to the agent over
the wire and hot-swapped (Section 5.4) -- precisely because the
decision logic is detached from the data-plane action.

Every scheduler exposes a ``parameters`` dict.  Those parameters form
the public API that the master's *policy reconfiguration* messages
manipulate at runtime (Fig. 3): e.g. the RAN-sharing experiment changes
``SlicedScheduler``'s per-operator resource fractions live (Fig. 12a).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.lte.mac import amc
from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.phy.tbs import prbs_needed, transport_block_bits
from repro.lte.rlc import RLC_HEADER_BYTES


def prbs_for_queue(cqi: int, queue_bytes: int) -> int:
    """PRBs needed to drain *queue_bytes* including RLC/MAC header room.

    Sizing the transport block to the bare queue would leave no room
    for the per-PDU header and strand sub-header-sized tails forever.
    """
    if queue_bytes <= 0:
        return 0
    return prbs_needed(cqi, (queue_bytes + RLC_HEADER_BYTES + 1) * 8)


class Scheduler(abc.ABC):
    """Base class for downlink schedulers (local or centralized)."""

    #: Human-readable algorithm name (shows up in policy messages).
    name: str = "scheduler"

    def __init__(self) -> None:
        self.parameters: Dict[str, Any] = {}

    @abc.abstractmethod
    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        """Produce this TTI's downlink allocation."""

    def __call__(self, ctx: SchedulingContext) -> List[DlAssignment]:
        ob = _obs.get()
        if not ob.enabled:
            return self.schedule(ctx)
        with ob.tracer.span("scheduler", self.name, tti=ctx.tti,
                            cell=ctx.cell_id):
            out = self.schedule(ctx)
        ob.registry.counter("mac.sched.runs").inc()
        if out:
            ob.registry.counter("mac.sched.assignments").inc(len(out))
        return out

    def set_parameter(self, name: str, value: Any) -> None:
        """Reconfigure one public parameter (policy reconfiguration)."""
        if name not in self.parameters:
            raise KeyError(
                f"{self.name} has no parameter {name!r}; available: "
                f"{sorted(self.parameters)}")
        self.parameters[name] = value

    def describe(self) -> Dict[str, Any]:
        """Summary used in statistics/registry reports."""
        return {"name": self.name, "parameters": dict(self.parameters)}


def schedule_retransmissions(ctx: SchedulingContext,
                             budget: int) -> List[DlAssignment]:
    """Allocate pending HARQ retransmissions first (standard practice).

    Retransmissions reuse their original PRB count and MCS; they are
    served in (rnti, pid) order until the PRB budget runs out.
    """
    out: List[DlAssignment] = []
    remaining = budget
    for retx in sorted(ctx.pending_retx, key=lambda r: (r.rnti, r.harq_pid)):
        if retx.n_prb > remaining:
            continue
        out.append(DlAssignment(
            rnti=retx.rnti, n_prb=retx.n_prb, cqi_used=retx.cqi_used,
            harq_pid=retx.harq_pid, is_retx=True))
        remaining -= retx.n_prb
    return out


def _greedy_fill(ues: Sequence[UeView], budget: int, tti: int,
                 *, min_share_prb: int = 0) -> List[DlAssignment]:
    """Allocate PRBs to *ues* in order, each by queue need.

    If ``min_share_prb`` is positive, the budget is first divided so
    every backlogged UE gets at least that many PRBs where possible
    (frequency-multiplexed fairness); otherwise UEs are served greedily
    in order (time-multiplexed fairness).
    """
    out: List[DlAssignment] = []
    remaining = budget
    candidates = [u for u in ues if u.queue_bytes > 0 and u.cqi > 0]
    if not candidates:
        return out
    if min_share_prb > 0:
        fair = budget // len(candidates)
        if min_share_prb * len(candidates) <= budget:
            share = max(min_share_prb, fair)
        else:
            # The budget cannot give every candidate its minimum share.
            # Handing min_share_prb to the UEs served first would leave
            # the tail with zero PRBs; clamp to the fair split instead
            # so everyone keeps a slot ("at least that many PRBs where
            # possible" -- and where not possible, degrade evenly).
            share = max(1, fair)
    else:
        share = budget
    for ue in candidates:
        if remaining <= 0:
            break
        need = prbs_for_queue(ue.cqi, ue.queue_bytes)
        n_prb = min(need, share, remaining)
        if n_prb <= 0:
            continue
        out.append(DlAssignment(rnti=ue.rnti, n_prb=n_prb,
                                cqi_used=amc.select_mcs(ue.cqi)))
        remaining -= n_prb
    return out


class RoundRobinScheduler(Scheduler):
    """Classic round-robin: serve backlogged UEs in rotating order.

    With saturated queues this degenerates into time-division round
    robin (one UE takes the whole carrier per TTI), matching OAI's
    default scheduler behaviour.
    """

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._next_index = 0

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        backlogged = ctx.candidates(retx_rntis)
        if not backlogged or remaining <= 0:
            return out
        start = self._next_index % len(backlogged)
        rotated = backlogged[start:] + backlogged[:start]
        new_data = _greedy_fill(rotated, remaining, ctx.tti)
        if new_data:
            served_first = new_data[0].rnti
            for i, u in enumerate(backlogged):
                if u.rnti == served_first:
                    self._next_index = i + 1
                    break
        out.extend(new_data)
        return out


class FairShareScheduler(Scheduler):
    """Equal PRB split across all backlogged UEs every TTI.

    Frequency-multiplexed fairness: every backlogged UE is scheduled
    every TTI with an equal PRB share.  This is the "fair" policy of
    the RAN-sharing experiment (Fig. 12b: all MNO UEs at ~380 kb/s) and
    the regime that makes per-TTI signaling scale with UE count
    (Fig. 7).
    """

    name = "fair_share"

    def __init__(self) -> None:
        super().__init__()
        self._rotate = 0

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        backlogged = ctx.candidates(retx_rntis)
        if not backlogged or remaining <= 0:
            return out
        # Rotate who receives the remainder PRBs so that quantization
        # (e.g. 25 PRBs over 15 UEs) stays fair in the long run.
        offset = self._rotate % len(backlogged)
        self._rotate += 1
        backlogged = backlogged[offset:] + backlogged[:offset]
        share, extra = divmod(remaining, len(backlogged))
        for index, ue in enumerate(backlogged):
            if remaining <= 0:
                break
            quota = share + (1 if index < extra else 0)
            need = prbs_for_queue(ue.cqi, ue.queue_bytes)
            n_prb = min(need, max(quota, 1), remaining)
            if n_prb <= 0:
                continue
            out.append(DlAssignment(rnti=ue.rnti, n_prb=n_prb,
                                    cqi_used=amc.select_mcs(ue.cqi)))
            remaining -= n_prb
        return out


class ProportionalFairScheduler(Scheduler):
    """Proportional fair: maximize sum log-rate via r_inst / r_avg.

    The canonical cellular scheduler and the paper's running example of
    a delegated VSF ("a local proportional fair scheduler").  The
    average rate is tracked internally with an EWMA whose horizon is a
    public, reconfigurable parameter.
    """

    name = "proportional_fair"

    def __init__(self, *, ewma_alpha: float = 0.05) -> None:
        super().__init__()
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.parameters = {"ewma_alpha": ewma_alpha}
        self._avg_rate: Dict[int, float] = {}

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        alpha = float(self.parameters["ewma_alpha"])
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        candidates = ctx.candidates(retx_rntis)
        served_bits: Dict[int, int] = {}
        while remaining > 0 and candidates:
            def metric(u: UeView) -> float:
                inst = transport_block_bits(u.cqi, 1)
                avg = self._avg_rate.get(u.rnti, 1.0)
                return inst / max(avg, 1.0)

            best = max(candidates, key=metric)
            need = prbs_for_queue(best.cqi, best.queue_bytes)
            n_prb = min(need, remaining)
            if n_prb <= 0:
                candidates.remove(best)
                continue
            out.append(DlAssignment(rnti=best.rnti, n_prb=n_prb,
                                    cqi_used=amc.select_mcs(best.cqi)))
            served_bits[best.rnti] = transport_block_bits(best.cqi, n_prb)
            remaining -= n_prb
            candidates.remove(best)
        # EWMA update for every connected UE, served or not.
        for u in ctx.ues:
            bits = served_bits.get(u.rnti, 0)
            prev = self._avg_rate.get(u.rnti, 1.0)
            self._avg_rate[u.rnti] = (1 - alpha) * prev + alpha * bits
        return out


class MaxCqiScheduler(Scheduler):
    """Opportunistic max-C/I: always serve the best channel first.

    Maximizes cell throughput at the cost of starving cell-edge UEs;
    included as a baseline for scheduler-comparison examples.
    """

    name = "max_cqi"

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        ranked = sorted(ctx.candidates(retx_rntis),
                        key=lambda u: (-u.cqi, u.rnti))
        out.extend(_greedy_fill(ranked, remaining, ctx.tti))
        return out


class SlicedScheduler(Scheduler):
    """Partition PRBs across operator slices, each with its own policy.

    The RAN-sharing VSF of Section 6.3: UEs carry an ``operator`` label,
    each operator owns a fraction of the carrier, and an inner scheduler
    runs within the slice.  The ``fractions`` parameter is live-mutable
    via policy reconfiguration (the Fig. 12a experiment rewrites it at
    t=10 s and t=140 s).
    """

    name = "sliced"
    label_key = "operator"

    def __init__(self, fractions: Dict[str, float],
                 inner_factory=FairShareScheduler,
                 policies: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self._validate_fractions(fractions)
        self.parameters = {"fractions": dict(fractions)}
        self._inner_factory = inner_factory
        policies = policies or {}
        self._inner: Dict[str, Scheduler] = {
            op: (self._make_inner(policies[op]) if op in policies
                 else inner_factory())
            for op in fractions}

    @staticmethod
    def _make_inner(policy: str) -> Scheduler:
        """Build a per-slice inner scheduler by policy name."""
        if policy == "group_based":
            return GroupScheduler()
        return make_scheduler(policy)

    @staticmethod
    def _validate_fractions(fractions: Dict[str, float]) -> None:
        if not fractions:
            raise ValueError("at least one slice is required")
        total = sum(fractions.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"slice fractions sum to {total} > 1")
        for op, frac in fractions.items():
            if frac < 0:
                raise ValueError(f"slice {op!r} has negative fraction {frac}")

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "fractions":
            self._validate_fractions(value)
            for op in value:
                if op not in self._inner:
                    self._inner[op] = self._inner_factory()
        super().set_parameter(name, value)

    def inner_scheduler(self, operator: str) -> Scheduler:
        """Access a slice's inner scheduler (e.g. to reconfigure it)."""
        return self._inner[operator]

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        fractions: Dict[str, float] = self.parameters["fractions"]
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        for op in sorted(fractions):
            quota = int(round(fractions[op] * ctx.n_prb))
            quota = min(quota, remaining)
            if quota <= 0:
                continue
            members = [u for u in ctx.ues
                       if u.labels.get(self.label_key) == op
                       and u.rnti not in retx_rntis]
            if not members:
                continue
            sub = SchedulingContext(
                tti=ctx.tti, n_prb=quota, ues=members, pending_retx=[],
                cell_id=ctx.cell_id, subframe=ctx.subframe,
                abs_subframe=ctx.abs_subframe)
            inner = self._inner[op].schedule(sub)
            out.extend(inner)
            remaining -= sum(a.n_prb for a in inner)
        return out


class GroupScheduler(Scheduler):
    """Two-tier slice policy: premium/secondary user groups.

    The second RAN-sharing experiment (Fig. 12b): within one operator's
    slice, UEs labelled ``group=premium`` share a configurable fraction
    of the slice and ``group=secondary`` UEs share the rest.
    """

    name = "group_based"
    label_key = "group"

    def __init__(self, *, premium_fraction: float = 0.7) -> None:
        super().__init__()
        if not 0.0 <= premium_fraction <= 1.0:
            raise ValueError(
                f"premium_fraction must be in [0, 1], got {premium_fraction}")
        self.parameters = {"premium_fraction": premium_fraction}
        self._premium = FairShareScheduler()
        self._secondary = FairShareScheduler()

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        frac = float(self.parameters["premium_fraction"])
        out = schedule_retransmissions(ctx, ctx.n_prb)
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        retx_rntis = {a.rnti for a in out}
        plans = (
            ("premium", self._premium, int(round(frac * ctx.n_prb))),
            ("secondary", self._secondary, ctx.n_prb - int(round(frac * ctx.n_prb))),
        )
        for group, inner, quota in plans:
            quota = min(quota, remaining)
            if quota <= 0:
                continue
            members = [u for u in ctx.ues
                       if u.labels.get(self.label_key) == group
                       and u.rnti not in retx_rntis]
            if not members:
                continue
            sub = SchedulingContext(
                tti=ctx.tti, n_prb=quota, ues=members, pending_retx=[],
                cell_id=ctx.cell_id, subframe=ctx.subframe,
                abs_subframe=ctx.abs_subframe)
            inner_out = inner.schedule(sub)
            out.extend(inner_out)
            remaining -= sum(a.n_prb for a in inner_out)
        return out


class NullScheduler(Scheduler):
    """Schedules nothing; the muted state of an eICIC macro cell."""

    name = "null"

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        return []


SCHEDULER_REGISTRY = {
    cls.name: cls for cls in (
        RoundRobinScheduler, FairShareScheduler, ProportionalFairScheduler,
        MaxCqiScheduler, NullScheduler)
}
"""Name -> class map for schedulers constructible without arguments."""


def make_scheduler(name: str, **kwargs: Any) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        cls = SCHEDULER_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULER_REGISTRY)}"
        ) from None
    return cls(**kwargs)
