"""Interference management use case: eICIC and optimized eICIC.

Section 6.1 of the paper.  A HetNet has a macro cell and small cells;
enhanced Inter-Cell Interference Coordination mutes the macro during
Almost-Blank Subframes (ABS) so small-cell victim UEs can be served.
Plain eICIC wastes ABS capacity whenever the small cells are idle; the
optimized variant implemented here lets a centralized FlexRAN
application reassign idle ABSs to the macro cell:

* The macro agent runs :class:`EicicMacroScheduler` -- a local fair
  scheduler during normal subframes that acts as a *stub* of the
  centralized scheduler during ABSs.
* Small-cell agents run :class:`AbsOnlyScheduler` -- local scheduling
  restricted to ABSs (when the aggressor is silent and the clear CQI
  applies).
* :class:`OptimizedEicicApp` at the master watches small-cell queues in
  the RIB; for each upcoming ABS with no small-cell backlog it pushes a
  macro scheduling decision, reclaiming the subframe.

All three scheduler classes register as VSF factories so the master
can push them to agents over the FlexRAN protocol like any delegated
code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.core.apps.base import App
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.delegation import VsfFactoryRegistry
from repro.lte.constants import CQI_MAX, CQI_MIN, SUBFRAMES_PER_FRAME
from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.mac.schedulers import FairShareScheduler, Scheduler
from repro.lte.phy.cqi import validate_cqi
from repro.lte.phy.tbs import TABLE_PRBS
from repro.lte.rrc import RrcState

_ACTIVE_STATES = {
    list(RrcState).index(RrcState.CONNECTING),
    list(RrcState).index(RrcState.CONNECTED),
}


def _normalize_abs(subframes: Iterable[int]) -> Set[int]:
    pattern = {int(s) for s in subframes}
    bad = [s for s in pattern if not 0 <= s < SUBFRAMES_PER_FRAME]
    if bad:
        raise ValueError(f"ABS subframes out of range 0-9: {sorted(bad)}")
    return pattern


class AbsOnlyScheduler(Scheduler):
    """Small-cell VSF: schedule only during the macro's ABSs.

    During ABSs the aggressor macro is silent, the interference-free
    CQI applies, and the inner scheduler runs; outside them the cell
    stays quiet (its victim UEs would see the interfered channel).
    """

    name = "abs_only_fair"

    def __init__(self, abs_subframes: Sequence[int] = ()) -> None:
        super().__init__()
        self.parameters = {"abs_subframes": sorted(_normalize_abs(abs_subframes))}
        self._inner = FairShareScheduler()

    def set_parameter(self, name, value) -> None:
        if name == "abs_subframes":
            value = sorted(_normalize_abs(value))
        super().set_parameter(name, value)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        if ctx.subframe not in set(self.parameters["abs_subframes"]):
            return []
        return self._inner.schedule(ctx)


class EicicMacroScheduler(Scheduler):
    """Macro VSF: local fair scheduling, stub during ABSs.

    Outside ABSs this is an ordinary local fair scheduler.  During an
    ABS the macro is muted *unless* the centralized application pushed
    a decision for that exact subframe (the optimized-eICIC reclaim).
    ``bind`` attaches the MAC module's remote-decision stub after the
    VSF is instantiated from a pushed blob.
    """

    name = "eicic_macro"

    def __init__(self, abs_subframes: Sequence[int] = ()) -> None:
        super().__init__()
        self.parameters = {"abs_subframes": sorted(_normalize_abs(abs_subframes))}
        self._inner = FairShareScheduler()
        self._stub = None

    def bind(self, module) -> None:
        """Attach the owning MAC module's remote stub (agent side)."""
        self._stub = module.remote_stub

    def set_parameter(self, name, value) -> None:
        if name == "abs_subframes":
            value = sorted(_normalize_abs(value))
        super().set_parameter(name, value)

    def schedule(self, ctx: SchedulingContext) -> List[DlAssignment]:
        if ctx.subframe not in set(self.parameters["abs_subframes"]):
            return self._inner.schedule(ctx)
        if self._stub is None:
            return []
        return self._stub(ctx)


def register_eicic_factories(registry: VsfFactoryRegistry) -> None:
    """Trust the eICIC VSFs on an agent (the certification step)."""
    registry.register("scheduler:abs_only_fair", AbsOnlyScheduler)
    registry.register("scheduler:eicic_macro", EicicMacroScheduler)


class OptimizedEicicApp(App):
    """Centralized coordinator reclaiming idle ABSs for the macro."""

    name = "optimized_eicic"
    priority = 90
    period_ttis = 1

    def __init__(self, *, macro_agent: int, macro_cell: int,
                 small_agents: Sequence[int],
                 abs_subframes: Sequence[int],
                 schedule_ahead: int = 2) -> None:
        self.macro_agent = macro_agent
        self.macro_cell = macro_cell
        self.small_agents = list(small_agents)
        self.abs_subframes = sorted(_normalize_abs(abs_subframes))
        if schedule_ahead < 1:
            raise ValueError("schedule_ahead must be >= 1 for ABS reclaim")
        self.schedule_ahead = schedule_ahead
        self.reclaimed_abs = 0
        self.skipped_abs = 0
        self._configured = False
        self.subscriptions: Dict[int, StatsSubscription] = {}
        self._inner = FairShareScheduler()

    def on_start(self, nb: NorthboundApi) -> None:
        # Stats subscriptions happen lazily once agents appear in the RIB.
        self._configured = False

    def _configure(self, nb: NorthboundApi) -> bool:
        """Push VSFs and patterns once every agent is connected."""
        known = set(nb.agent_ids())
        needed = {self.macro_agent, *self.small_agents}
        if not needed <= known:
            return False
        # Cell configurations must also have arrived (they follow the
        # Hello by one protocol round trip).
        for agent_id in needed:
            if not nb.rib.agent(agent_id).cells:
                return False
        abs_csv = list(self.abs_subframes)
        nb.push_vsf(self.macro_agent, "mac", "dl_scheduling", "eicic_macro",
                    "scheduler:eicic_macro", {"abs_subframes": abs_csv})
        nb.reconfigure_vsf(self.macro_agent, "mac", "dl_scheduling",
                           behavior="eicic_macro")
        nb.set_abs_pattern(self.macro_agent, self.macro_cell,
                           self.abs_subframes)
        for agent_id in [self.macro_agent, *self.small_agents]:
            self.subscriptions[agent_id] = nb.subscribe_stats(
                agent_id, period_ttis=1)
            nb.enable_sync(agent_id, True)
        for agent_id in self.small_agents:
            nb.push_vsf(agent_id, "mac", "dl_scheduling", "abs_only_fair",
                        "scheduler:abs_only_fair",
                        {"abs_subframes": abs_csv})
            nb.reconfigure_vsf(agent_id, "mac", "dl_scheduling",
                               behavior="abs_only_fair")
            # Announce the complement: small cells transmit only in ABSs,
            # so the macro can use clear CQI outside them.
            complement = [s for s in range(SUBFRAMES_PER_FRAME)
                          if s not in self.abs_subframes]
            nb.set_abs_pattern(agent_id, self._small_cell_id(nb, agent_id),
                               complement)
        return True

    @staticmethod
    def _small_cell_id(nb: NorthboundApi, agent_id: int) -> int:
        cells = nb.rib.agent(agent_id).cells
        return next(iter(sorted(cells)))

    def run(self, tti: int, nb: NorthboundApi) -> None:
        if not self._configured:
            self._configured = self._configure(nb)
            if not self._configured:
                return
        macro = nb.rib.agent(self.macro_agent)
        target = macro.estimated_subframe(tti) + self.schedule_ahead
        if target % SUBFRAMES_PER_FRAME not in self.abs_subframes:
            return
        if self._small_cells_backlogged(nb):
            self.skipped_abs += 1
            return
        cell = macro.cells.get(self.macro_cell)
        if cell is None or cell.config is None:
            return
        views: List[UeView] = []
        for rnti in sorted(cell.ues):
            node = cell.ues[rnti]
            if node.stats is None or node.stats.rrc_state not in _ACTIVE_STATES:
                continue
            # The small cells are silent in this reclaimed ABS, so the
            # macro UEs' interference-free CQI applies.  It came off
            # the wire: checked as DlAssignment does.
            cqi = node.cqi_clear
            if type(cqi) is not int or not CQI_MIN <= cqi <= CQI_MAX:
                validate_cqi(cqi)
            views.append(UeView(rnti=rnti, queue_bytes=node.queue_bytes,
                                cqi=cqi))
        n_prb = cell.n_prb  # off the wire: no carrier is wider than the table
        if n_prb > TABLE_PRBS:
            n_prb = TABLE_PRBS
        ctx = SchedulingContext(tti=target, n_prb=n_prb, ues=views,
                                cell_id=self.macro_cell,
                                subframe=target % SUBFRAMES_PER_FRAME)
        assignments = self._inner.schedule(ctx)
        if not assignments:
            return
        nb.send_dl_command(self.macro_agent, self.macro_cell, target,
                           assignments)
        self.reclaimed_abs += 1

    def _small_cells_backlogged(self, nb: NorthboundApi) -> bool:
        for agent_id in self.small_agents:
            agent = nb.rib.agent(agent_id)
            for node in agent.all_ues():
                if node.queue_bytes > 0:
                    return True
        return False
