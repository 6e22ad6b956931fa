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
from itertools import chain, islice
from typing import Any, Collection, Dict, Iterable, List, Optional, Tuple

from repro import obs as _obs
from repro.lte.constants import CQI_MAX
from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.phy.tbs import TABLE_PRBS, prbs_needed, transport_block_bits
from repro.lte.rlc import RLC_HEADER_BYTES

#: Bits one PRB carries at each CQI: proportional fair's instantaneous rate.
_ONE_PRB_BITS = tuple(transport_block_bits(cqi, 1) for cqi in range(CQI_MAX + 1))

#: Bits of the widest block at each CQI: a queue past it takes the table.
_WIDEST_BITS = tuple(transport_block_bits(cqi, TABLE_PRBS)
                     for cqi in range(CQI_MAX + 1))


def prbs_for_queue(cqi: int, queue_bytes: int) -> int:
    """PRBs needed to drain *queue_bytes* including RLC/MAC header room.

    Sizing the transport block to the bare queue would leave no room
    for the per-PDU header and strand sub-header-sized tails forever.
    The answer is at most :data:`~repro.lte.phy.tbs.TABLE_PRBS`: no
    carrier is wider, and every caller caps it at a carrier's budget.
    """
    if queue_bytes <= 0:
        return 0
    bits = (queue_bytes + RLC_HEADER_BYTES + 1) * 8
    if 0 < cqi <= CQI_MAX and bits > _WIDEST_BITS[cqi]:
        return TABLE_PRBS
    return prbs_needed(cqi, bits)


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
        ob = _obs.live
        if ob is None:
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


def retransmissions_first(
        ctx: SchedulingContext
) -> Tuple[List[DlAssignment], int, Collection[int]]:
    """``(assignments, PRBs left, their RNTIs)`` after serving *ctx*'s
    pending retransmissions from the whole carrier.  Every scheduler
    starts with it, behind one test: with nothing pending the answer is
    ``([], ctx.n_prb, ())``, so an idle TTI makes no call for it."""
    out = schedule_retransmissions(ctx, ctx.n_prb)
    return out, ctx.n_prb - sum(a.n_prb for a in out), {a.rnti for a in out}


def _greedy_fill(ues: Iterable[UeView], budget: int) -> List[DlAssignment]:
    """Allocate PRBs to the candidates *ues* in order, each by queue
    need, until the budget runs out (time-multiplexed fairness)."""
    out: List[DlAssignment] = []
    remaining = budget
    for ue in ues:
        if remaining <= 0:
            break
        need = prbs_for_queue(ue.cqi, ue.queue_bytes)
        n_prb = need if need < remaining else remaining
        out.append(DlAssignment(rnti=ue.rnti, n_prb=n_prb,
                                cqi_used=ue.cqi))
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
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
        candidates = ctx.candidates(retx_rntis)
        if not candidates or remaining <= 0:
            return out
        # Walk the candidates in place, from the rotation index round to
        # it, until the PRBs run out.  The first one is always served
        # (a candidate needs at least one PRB): the next TTI starts
        # after it.
        start = self._next_index % len(candidates)
        self._next_index = start + 1
        out.extend(_greedy_fill(chain(islice(candidates, start, None),
                                      islice(candidates, start)), remaining))
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
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
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
                                    cqi_used=ue.cqi))
            remaining -= n_prb
        return out


class ProportionalFairScheduler(Scheduler):
    """Proportional fair: maximize sum log-rate via r_inst / r_avg.

    The canonical cellular scheduler and the paper's running example of
    a delegated VSF ("a local proportional fair scheduler").  The
    average rate is tracked internally with an EWMA whose horizon is a
    public, reconfigurable parameter.

    Ranking: averages move only in the EWMA update after the picks, so
    each candidate's metric is computed once per TTI and one stable
    reverse sort orders the grants -- the picks of a max per grant,
    first-wins ties included.  EWMA: every UE in ``ctx.ues`` decays by
    ``1 - alpha``, then a served UE's average becomes ``(1 - alpha) *
    prev + alpha * bits``; for an unserved UE the product alone equals
    the full update bit for bit, as averages are never negative.  A UE
    absent from ``ctx.ues`` keeps its average frozen.
    """

    name = "proportional_fair"

    def __init__(self, *, ewma_alpha: float = 0.05) -> None:
        super().__init__()
        self.parameters = {"ewma_alpha": self._validate_alpha(ewma_alpha)}
        self._avg_rate: Dict[int, float] = {}

    @staticmethod
    def _validate_alpha(alpha: Any) -> float:
        try:
            value = float(alpha)
        except (TypeError, ValueError):
            raise ValueError(
                f"ewma_alpha must be a number, got {alpha!r}") from None
        if not 0.0 < value <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {alpha}")
        return value

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "ewma_alpha":
            value = self._validate_alpha(value)
        super().set_parameter(name, value)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        alpha = self.parameters["ewma_alpha"]
        decay = 1 - alpha
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
        candidates = ctx.candidates(retx_rntis)
        avg_rate = self._avg_rate
        get = avg_rate.get
        metrics = [_ONE_PRB_BITS[u.cqi] / (avg if (avg := get(u.rnti, 1.0)) > 1.0 else 1.0)
                   for u in candidates]
        served: Dict[int, float] = {}
        for i in sorted(range(len(metrics)), key=metrics.__getitem__, reverse=True):
            if remaining <= 0:
                break
            ue = candidates[i]
            n_prb = min(prbs_for_queue(ue.cqi, ue.queue_bytes), remaining)
            if n_prb <= 0:
                continue
            out.append(DlAssignment(rnti=ue.rnti, n_prb=n_prb,
                                    cqi_used=ue.cqi))
            served[ue.rnti] = (decay * get(ue.rnti, 1.0)
                               + alpha * transport_block_bits(ue.cqi, n_prb))
            remaining -= n_prb
        for u in ctx.ues:
            rnti = u.rnti
            avg_rate[rnti] = decay * (avg_rate[rnti] if rnti in avg_rate else 1.0)
        avg_rate.update(served)
        return out


class MaxCqiScheduler(Scheduler):
    """Opportunistic max-C/I: always serve the best channel first.

    Maximizes cell throughput at the cost of starving cell-edge UEs;
    included as a baseline for scheduler-comparison examples.
    """

    name = "max_cqi"

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
        ranked = sorted(ctx.candidates(retx_rntis),
                        key=lambda u: (-u.cqi, u.rnti))
        out.extend(_greedy_fill(ranked, remaining))
        return out


class SlicedScheduler(Scheduler):
    """Partition PRBs across operator slices, each with its own policy.

    The RAN-sharing VSF of Section 6.3: UEs carry an ``operator`` label,
    each operator owns a fraction of the carrier, and an inner scheduler
    runs within the slice.  The ``fractions`` parameter is live-mutable
    via policy reconfiguration (the Fig. 12a experiment rewrites it at
    t=10 s and t=140 s).  *policies* names a slice's scheduler in
    :data:`SCHEDULER_REGISTRY`; a slice without one, or added later by
    a new fraction, is scheduled fair-share.
    """

    name = "sliced"
    label_key = "operator"

    def __init__(self, fractions: Dict[str, float],
                 policies: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self._validate_fractions(fractions)
        self.parameters = {"fractions": dict(fractions)}
        policies = policies or {}
        self._inner: Dict[str, Scheduler] = {
            op: (make_scheduler(policies[op]) if op in policies
                 else FairShareScheduler())
            for op in fractions}

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
                    self._inner[op] = FairShareScheduler()
        super().set_parameter(name, value)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        fractions: Dict[str, float] = self.parameters["fractions"]
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
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
        self.parameters = {
            "premium_fraction": self._validate_fraction(premium_fraction)}
        self._premium = FairShareScheduler()
        self._secondary = FairShareScheduler()

    @staticmethod
    def _validate_fraction(fraction: Any) -> float:
        try:
            value = float(fraction)
        except (TypeError, ValueError):
            raise ValueError(
                f"premium_fraction must be a number, got {fraction!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"premium_fraction must be in [0, 1], got {fraction}")
        return value

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "premium_fraction":
            value = self._validate_fraction(value)
        super().set_parameter(name, value)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        frac = self.parameters["premium_fraction"]
        out, remaining, retx_rntis = (
            retransmissions_first(ctx) if ctx.pending_retx
            else ([], ctx.n_prb, ()))
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
        MaxCqiScheduler, GroupScheduler, NullScheduler)
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
