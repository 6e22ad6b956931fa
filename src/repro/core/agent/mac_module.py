"""MAC/RLC control module: scheduling VSFs and remote-decision store.

The module the paper's prototype focuses on "due to the significant
challenges that it presents in terms of its stringent time
constraints".  Its CMI covers downlink and uplink UE scheduling.
Built-in VSFs provide local schedulers (round robin, fair share,
proportional fair) and the *remote stub*: the agent-side half of a
centralized scheduler, which applies decisions pushed by the master
for specific target subframes and counts decisions that "miss their
deadline" -- the mechanism behind the zero-throughput region of
Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.agent.api import AgentDataPlaneApi
from repro.core.agent.cmi import ControlModule, SandboxPolicy
from repro.core.protocol.messages import (
    AbsPatternConfig,
    BearerQosConfig,
    DlMacCommand,
    DrxCommand,
    PrbCapConfig,
    UlMacCommand,
)
from repro.lte.enodeb import default_ul_scheduler
from repro.lte.mac.dci import DlAssignment, SchedulingContext, UlGrant
from repro.lte.mac.qos import QosProfile, QosScheduler
from repro.lte.mac.schedulers import (
    FairShareScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    schedule_retransmissions,
)

DECISION_RETENTION_TTIS = 64
"""How long stored remote decisions for future subframes are retained
before being considered stale (bounded memory)."""


@dataclass
class RemoteStubStats:
    """Deadline bookkeeping of the remote scheduling stub."""

    applied: int = 0
    expired_on_arrival: int = 0
    missed_ttis: int = 0


class RemoteDecisionStore:
    """Master-pushed decisions awaiting their target TTI, with the
    deadline bookkeeping both remote stubs share.

    A decision is applied exactly at its target TTI.  One whose target
    has already passed when it arrives is expired ("scheduling
    decisions always miss their deadline"); a TTI with no valid
    decision is a miss.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[int, int], list] = {}
        self.stats = RemoteStubStats()

    def store(self, cell_id: int, target_tti: int, decision: list,
              now: int) -> bool:
        """Record a pushed decision; returns False if already expired."""
        if target_tti < now:
            self.stats.expired_on_arrival += 1
            return False
        self._store[(cell_id, target_tti)] = decision
        return True

    def take(self, ctx: SchedulingContext) -> Optional[list]:
        """The decision for *ctx*'s cell and TTI, or None (a miss);
        stale entries are dropped on the way."""
        stale = [key for key in self._store if key[1] < ctx.tti - 1]
        for key in stale:
            del self._store[key]
        decision = self._store.pop((ctx.cell_id, ctx.tti), None)
        if decision is None:
            self.stats.missed_ttis += 1
        else:
            self.stats.applied += 1
        return decision

    def pending(self) -> int:
        return len(self._store)


class RemoteSchedulingStub(RemoteDecisionStore):
    """Agent-side stub of a centralized downlink scheduler: applies the
    :class:`DlMacCommand` decision pushed for this TTI; a TTI without
    one transmits nothing new."""

    def __call__(self, ctx: SchedulingContext) -> List[DlAssignment]:
        decision = self.take(ctx)
        # HARQ retransmissions are inherently local and time-critical:
        # the agent serves them autonomously before applying the pushed
        # decision, as a real eNodeB MAC does.
        out = schedule_retransmissions(ctx, ctx.n_prb)
        if decision is None:
            return out
        remaining = ctx.n_prb - sum(a.n_prb for a in out)
        # Drop decisions for UEs that have since detached, and clip the
        # pushed allocation to the PRBs left after retransmissions.
        live = {u.rnti for u in ctx.ues}
        retx_rntis = {a.rnti for a in out}
        for a in decision:
            if a.rnti not in live or a.rnti in retx_rntis:
                continue
            if a.n_prb > remaining:
                if remaining <= 0:
                    break
                a = DlAssignment(rnti=a.rnti, n_prb=remaining,
                                 cqi_used=a.cqi_used, lcid=a.lcid)
            out.append(a)
            remaining -= a.n_prb
        return out


class RemoteUlStub(RemoteDecisionStore):
    """Agent-side stub of a centralized *uplink* scheduler: same
    deadline semantics, the payload is a list of uplink grants."""

    def __call__(self, ctx: SchedulingContext) -> List[UlGrant]:
        decision = self.take(ctx)
        if decision is None:
            return []
        live = {u.rnti for u in ctx.ues}
        return [g for g in decision if g.rnti in live]


class MacControlModule(ControlModule):
    """The MAC/RLC control module of a FlexRAN agent."""

    name = "mac"
    OPERATIONS = ("dl_scheduling", "ul_scheduling")
    REMOTE_VSF_NAMES = frozenset({"remote_stub", "remote_stub_ul"})

    def __init__(self, api: AgentDataPlaneApi, *,
                 sandbox: Optional[SandboxPolicy] = None) -> None:
        # Pushed scheduling code runs sandboxed by default: a VSF that
        # raises is quarantined and the built-in scheduler takes over
        # (Section 4.3.1's containment of "unexpected behavior").
        super().__init__(sandbox=sandbox if sandbox is not None
                         else SandboxPolicy())
        self._api = api
        self.remote_stub = RemoteSchedulingStub()
        self.remote_ul_stub = RemoteUlStub()
        # Built-in VSFs available without any delegation.
        self.register_vsf("dl_scheduling", "local_rr", RoundRobinScheduler())
        self.register_vsf("dl_scheduling", "local_fair", FairShareScheduler())
        self.register_vsf("dl_scheduling", "local_pf",
                          ProportionalFairScheduler())
        self.register_vsf("dl_scheduling", "local_qos", QosScheduler())
        self.register_vsf("dl_scheduling", "remote_stub", self.remote_stub)
        self.register_vsf("ul_scheduling", "local_fair_ul",
                          default_ul_scheduler)
        self.register_vsf("ul_scheduling", "remote_stub_ul",
                          self.remote_ul_stub)
        self.activate("dl_scheduling", "local_rr")
        self.activate("ul_scheduling", "local_fair_ul")
        self.set_fallback("dl_scheduling", "local_rr")
        self.set_fallback("ul_scheduling", "local_fair_ul")
        # The trampolines are the installed hooks: swapping the active
        # VSF requires no re-install, which makes swaps ~O(100 ns).
        for cell_id in api.cell_ids:
            api.set_dl_scheduler(cell_id, self._dl_trampoline)
            api.set_ul_scheduler(cell_id, self._ul_trampoline)

    def _dl_trampoline(self, ctx: SchedulingContext) -> List[DlAssignment]:
        return self.invoke("dl_scheduling", ctx)

    def _ul_trampoline(self, ctx: SchedulingContext) -> List[UlGrant]:
        return self.invoke("ul_scheduling", ctx)

    # -- the messages this module consumes ---------------------------------

    def message_handlers(self):
        return {
            DlMacCommand: self._on_dl_command,
            UlMacCommand: self._on_ul_command,
            DrxCommand: self._on_drx,
            BearerQosConfig: self._on_bearer_qos,
            PrbCapConfig: self._on_prb_cap,
            AbsPatternConfig: self._on_abs_pattern,
        }

    def _on_dl_command(self, message: DlMacCommand, now: int) -> None:
        """Store a master-pushed scheduling decision for its target TTI."""
        self.remote_stub.store(message.cell_id, message.target_tti, [
            DlAssignment(rnti=d.rnti, n_prb=d.n_prb, cqi_used=d.cqi_used)
            for d in message.assignments], now)

    def _on_ul_command(self, message: UlMacCommand, now: int) -> None:
        """Store a master-pushed uplink-grant decision."""
        self.remote_ul_stub.store(message.cell_id, message.target_tti, [
            UlGrant(rnti=g.rnti, n_prb=g.n_prb, cqi_used=g.cqi_used)
            for g in message.grants], now)

    def _on_drx(self, message: DrxCommand, now: int) -> None:
        self._api.set_drx(message.rnti, cycle_ttis=message.cycle_ttis,
                          on_duration_ttis=message.on_duration_ttis,
                          inactivity_ttis=message.inactivity_ttis)

    def _on_bearer_qos(self, message: BearerQosConfig, now: int) -> None:
        gbr = message.gbr_kbps / 1000.0 if message.gbr_kbps else None
        self._api.configure_bearer(message.rnti, message.lcid,
                                   QosProfile(qci=message.qci, gbr_mbps=gbr))

    def _on_prb_cap(self, message: PrbCapConfig, now: int) -> None:
        cap = message.n_prb if message.capped else None
        self._api.set_prb_cap(message.cell_id, cap)

    def _on_abs_pattern(self, message: AbsPatternConfig, now: int) -> None:
        self._api.set_abs_pattern(message.cell_id, list(message.subframes))
