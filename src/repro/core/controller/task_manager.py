"""Task Manager: the master's real-time TTI cycle.

Implements the design of Section 4.3.3: a non-preemptive loop
"operating in cycles of length equal to a TTI, where each cycle is
composed of two slots -- one for the execution of the RIB Updater
(e.g., 20% of the TTI) and the other for the execution of the
applications as well as the Event Notification Service threads (e.g.,
80% of the TTI)".  Single-writer/multiple-reader RIB access falls out
of this slotting: the updater runs alone in its slot, apps only read.

The slot's budget is simulated time: every invocation (an event
delivery or a periodic run) is charged the application's declared
``cost_ms``.  In real-time mode the budget is enforced: once the
charges exceed it, remaining (lower-priority) applications are
deferred to the next cycle and counted.  In non real-time mode "the
Task Manager does not enforce a strict duration of the cycle".

With an :class:`~repro.core.survive.AppSupervisor` installed, every
application invocation additionally runs inside a fault boundary: an
app that raises or declares more than its deadline is quarantined
(skipped entirely, counted per cycle) instead of unwinding the TTI
cycle -- the enforceable version of the paper's claim that "the
operation of the master controller is not affected" by misbehaving
applications.

Per-cycle wall-clock times of both slots are recorded -- they are the
"Apps" / "Core Components" / "Idle Time" series of Fig. 8 -- and only
recorded: no decision reads them (DESIGN.md section 11).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro import obs as _obs
from repro.core.controller.events import EventNotificationService
from repro.core.controller.registry import RegistryService
from repro.core.survive.supervisor import AppSupervisor
from repro.obs.registry import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.northbound import NorthboundApi

DEFAULT_TTI_BUDGET_MS = 1.0
DEFAULT_UPDATER_SHARE = 0.2

CYCLE_SAMPLE_WINDOW = 100_000
"""Core-slot timing samples retained for percentile queries."""


@dataclass
class CycleRecord:
    """Timing of one TTI cycle."""

    tti: int
    core_ms: float
    app_ms: float
    idle_ms: float
    apps_run: int
    apps_deferred: int
    overran: bool
    #: Apps skipped this cycle because their breaker was open.
    apps_quarantined: int = 0
    #: Declared cost charged to the application slot (simulated ms).
    slot_ms: float = 0.0


def _cycle_window() -> Deque[float]:
    return deque(maxlen=CYCLE_SAMPLE_WINDOW)


@dataclass
class CycleStats:
    """Aggregated cycle timings over a run.

    Besides the running means (the Fig. 8 series), core-slot samples
    are retained in a bounded window so tail cycle times
    (p50/p95/p99) can be reported -- a long master run keeps the most
    recent :data:`CYCLE_SAMPLE_WINDOW` cycles.
    """

    cycles: int = 0
    core_ms_total: float = 0.0
    app_ms_total: float = 0.0
    idle_ms_total: float = 0.0
    overruns: int = 0
    deferred_total: int = 0
    quarantined_total: int = 0
    core_ms_samples: Deque[float] = field(default_factory=_cycle_window,
                                          repr=False)

    def add(self, record: CycleRecord) -> None:
        self.cycles += 1
        self.core_ms_total += record.core_ms
        self.app_ms_total += record.app_ms
        self.idle_ms_total += record.idle_ms
        self.overruns += int(record.overran)
        self.deferred_total += record.apps_deferred
        self.quarantined_total += record.apps_quarantined
        self.core_ms_samples.append(record.core_ms)

    @property
    def mean_core_ms(self) -> float:
        return self.core_ms_total / self.cycles if self.cycles else 0.0

    @property
    def mean_app_ms(self) -> float:
        return self.app_ms_total / self.cycles if self.cycles else 0.0

    @property
    def mean_idle_ms(self) -> float:
        return self.idle_ms_total / self.cycles if self.cycles else 0.0

    def percentile_core_ms(self, q: float) -> float:
        """Tail core-slot time over the retained window (0 if empty)."""
        samples = self.core_ms_samples
        return percentile(list(samples), q) if samples else 0.0


class TaskManager:
    """Runs the two-slot TTI cycle over registry applications."""

    def __init__(self, registry: RegistryService,
                 events: EventNotificationService, *,
                 realtime: bool = True,
                 tti_budget_ms: float = DEFAULT_TTI_BUDGET_MS,
                 updater_share: float = DEFAULT_UPDATER_SHARE,
                 supervisor: Optional[AppSupervisor] = None) -> None:
        if not 0.0 < updater_share < 1.0:
            raise ValueError(
                f"updater_share must be in (0, 1), got {updater_share}")
        if tti_budget_ms <= 0:
            raise ValueError(
                f"tti_budget_ms must be positive, got {tti_budget_ms}")
        self._registry = registry
        self._events = events
        self.realtime = realtime
        self.tti_budget_ms = tti_budget_ms
        self.updater_share = updater_share
        #: The application fault boundary; None disables supervision
        #: (the legacy fast path -- an app exception unwinds the cycle).
        self.supervisor = supervisor
        self.stats = CycleStats()
        self.last_record: Optional[CycleRecord] = None

    @property
    def app_budget_ms(self) -> float:
        return self.tti_budget_ms * (1.0 - self.updater_share)

    def cycle(self, tti: int, drain_fn: Callable[[], None],
              nb: "NorthboundApi") -> CycleRecord:
        """Execute one TTI cycle: updater slot, then application slot."""
        ob = _obs.get()
        start = time.perf_counter()
        if ob.enabled:
            # RIB Updater: the only RIB writer, alone in its slot.
            with ob.tracer.span("task_manager", "rib_updater", tti=tti):
                drain_fn()
        else:
            drain_fn()
        core_end = time.perf_counter()
        core_ms = (core_end - start) * 1000.0

        if ob.enabled:
            with ob.tracer.span("task_manager", "apps", tti=tti):
                apps_run, apps_deferred, apps_quarantined, slot_ms = (
                    self._app_slot(tti, nb))
        else:
            apps_run, apps_deferred, apps_quarantined, slot_ms = (
                self._app_slot(tti, nb))
        app_ms = (time.perf_counter() - core_end) * 1000.0

        if ob.enabled:
            registry = ob.registry
            registry.histogram("master.cycle.core_ms").observe(core_ms)
            registry.histogram("master.cycle.app_ms").observe(app_ms)
            if apps_deferred:
                registry.counter("master.cycle.apps_deferred").inc(
                    apps_deferred)
            if apps_quarantined:
                registry.counter("master.cycle.apps_quarantined").inc(
                    apps_quarantined)

        used_ms = core_ms + app_ms
        record = CycleRecord(
            tti=tti, core_ms=core_ms, app_ms=app_ms,
            idle_ms=max(0.0, self.tti_budget_ms - used_ms),
            apps_run=apps_run, apps_deferred=apps_deferred,
            overran=used_ms > self.tti_budget_ms,
            apps_quarantined=apps_quarantined, slot_ms=slot_ms)
        self.stats.add(record)
        self.last_record = record
        return record

    def _app_slot(self, tti: int, nb: "NorthboundApi") -> tuple:
        """The application slot: event fan-out, then due applications."""
        apps_run = 0
        apps_deferred = 0
        apps_quarantined = 0
        sup = self.supervisor
        # Enforced in real-time mode only: the slot's budget, which is
        # also the deadline of an application that sets none.
        budget = self.app_budget_ms if self.realtime else None
        slot_ms = self._events.dispatch(tti, nb)
        for reg in self._registry.runnable():
            app = reg.app
            if not app.is_due(tti):
                continue
            # Quarantine check precedes budget accounting: an open
            # breaker consumes none of the slot, so a crash-looping
            # app cannot starve lower-priority healthy apps.
            if sup is not None and not sup.admitted(app.name, tti):
                apps_quarantined += 1
                continue
            if budget is not None and slot_ms > budget:
                apps_deferred += 1
                continue
            slot_ms += app.cost_ms
            if nb is not None:
                nb.set_current_app(app)
            try:
                if sup is None:
                    app.run(tti, nb)
                    completed = True
                else:
                    completed = sup.call(
                        app.name, lambda: app.run(tti, nb), tti=tti,
                        cost_ms=app.cost_ms,
                        deadline_ms=(app.deadline_ms if app.deadline_ms
                                     is not None else budget))
            finally:
                if nb is not None:
                    nb.set_current_app(None)
            if completed:
                reg.runs += 1
                apps_run += 1
        return apps_run, apps_deferred, apps_quarantined, slot_ms
