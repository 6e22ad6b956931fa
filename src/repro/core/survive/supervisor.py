"""Application supervision: the master's per-app fault boundary.

The paper's Task Manager exists so that "the operation of the master
controller is not affected" by slow or misbehaving applications
(Section 4.3.3).  The :class:`AppSupervisor` makes that guarantee
enforceable: every application invocation (the periodic ``run`` slot
and the event-based ``on_event`` deliveries alike) passes through
:meth:`AppSupervisor.invoke` and so :meth:`AppSupervisor.call`, which
catches exceptions, holds the invocation's declared cost against a
deadline, and drives a per-app circuit breaker:

``CLOSED`` --(N consecutive faults)--> ``QUARANTINED``
--(cooldown expires)--> ``PROBATION``
--(clean probation runs)--> ``CLOSED``
--(fault during probation)--> ``QUARANTINED`` (escalated cooldown)

A quarantined app is skipped entirely -- it cannot stall the cycle or
starve other applications -- and is re-admitted on probation after a
cooldown, so a transient fault (a bad config push, a dependency blip)
does not permanently disable the app.  Repeated re-quarantines double
the cooldown up to a cap, so a crash-looping app converges to running
almost never while healthy apps keep their full slot.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro import obs as _obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.apps.base import App
    from repro.core.controller.northbound import NorthboundApi

logger = logging.getLogger(__name__)


def capped_doubling(base, cap, times: int):
    """*base* doubled *times* times, but never above *cap* (a backoff
    schedule).  Doubling stops at the cap, so no value past it is ever
    computed and any *times* is safe; ``base * 2 ** times`` is not (as
    a float it overflows from 1024 doublings on)."""
    if times < 0:
        raise ValueError(f"doublings must be >= 0: {times}")
    value = min(base, cap)
    while times > 0 and 0 < value < cap:
        value = min(value * 2, cap)
        times -= 1
    return value


MAX_CONSECUTIVE_FAULTS = 3
"""Faults in a row that open an app's breaker."""

COOLDOWN_TTIS = 500
"""Quarantine of a first offence; each re-quarantine doubles it."""

MAX_COOLDOWN_TTIS = 8000
"""Cap of the doubled cooldown."""

PROBATION_RUNS = 5
"""Clean runs that close the breaker of a re-admitted app."""


class BreakerState(enum.Enum):
    """Circuit-breaker state of one supervised application."""

    CLOSED = "closed"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass
class AppHealth:
    """Fault bookkeeping of one supervised application."""

    name: str
    state: BreakerState = BreakerState.CLOSED
    #: Total invocations that raised.
    crashes: int = 0
    #: Total invocations whose declared cost exceeded their deadline.
    overruns: int = 0
    consecutive_faults: int = 0
    clean_runs: int = 0
    quarantines: int = 0
    readmissions: int = 0
    quarantined_at_tti: int = -1
    #: Cooldown applied at the most recent quarantine (escalates).
    cooldown_ttis: int = 0
    probation_left: int = 0
    last_fault: str = ""
    #: Fault counts split by invocation pattern ("periodic" / "event").
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: (tti, state) log of every breaker transition, oldest first.
    transitions: List[Tuple[int, BreakerState]] = field(
        default_factory=list)

    def _transition(self, state: BreakerState, tti: int) -> None:
        self.state = state
        self.transitions.append((tti, state))


class AppSupervisor:
    """Fault boundary and circuit breaker over master applications."""

    def __init__(self) -> None:
        self._health: Dict[str, AppHealth] = {}
        #: Exceptions absorbed at the boundary.
        self.faults_contained = 0

    # -- introspection ----------------------------------------------------

    def health(self, name: str) -> AppHealth:
        if name not in self._health:
            self._health[name] = AppHealth(name=name)
        return self._health[name]

    def quarantined_names(self) -> List[str]:
        return sorted(name for name, h in self._health.items()
                      if h.state is BreakerState.QUARANTINED)

    # -- admission --------------------------------------------------------

    def admitted(self, name: str, tti: int) -> bool:
        """Whether *name* may run at *tti*; handles re-admission.

        A quarantined app whose cooldown has expired transitions to
        PROBATION here (and is admitted); otherwise quarantine means
        the Task Manager and the Events Notification Service skip it.
        """
        h = self.health(name)
        if h.state is not BreakerState.QUARANTINED:
            return True
        if tti - h.quarantined_at_tti < h.cooldown_ttis:
            return False
        h._transition(BreakerState.PROBATION, tti)
        h.probation_left = PROBATION_RUNS
        h.readmissions += 1
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("survive.app.readmissions").inc()
        logger.info("supervisor: app %s re-admitted on probation at "
                    "tti %d (%d clean runs to close)", name, tti,
                    h.probation_left)
        return True

    # -- the boundary -----------------------------------------------------

    def invoke(self, app: "App", fn: Callable[..., None], *args: Any,
               nb: Optional["NorthboundApi"], tti: int,
               kind: str = "periodic",
               deadline_ms: Optional[float] = None) -> bool:
        """Invoke *app* through *fn* (its ``run`` or ``on_event``, looked
        up by the caller) as ``fn(*args)``: the one way the master runs
        an application.  The northbound attributes commands to *app*
        while it runs; the boundary charges the app's declared cost.
        """
        if nb is not None:
            nb.set_current_app(app)
        try:
            return self.call(app.name, fn, *args, tti=tti, kind=kind,
                             cost_ms=app.cost_ms, deadline_ms=deadline_ms)
        finally:
            if nb is not None:
                nb.set_current_app(None)

    def call(self, name: str, fn: Callable[..., None], *args: Any,
             tti: int, kind: str = "periodic", cost_ms: float = 0.0,
             deadline_ms: Optional[float] = None) -> bool:
        """Run ``fn(*args)``, declared to cost *cost_ms*, inside the
        boundary.  A cost over *deadline_ms* is a fault like a crash;
        with no deadline only a crash is.

        Returns True if the invocation completed (even if it overran
        its deadline), False if it raised.  Faults feed the breaker
        under *kind* ("periodic" / "event"); the exception never
        propagates to the caller.
        """
        h = self.health(name)
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - the app fault boundary
            h.crashes += 1
            self.faults_contained += 1
            ob = _obs.live
            if ob is not None:
                ob.registry.counter("survive.app.crashes").inc()
                ob.registry.counter("survive.app.crashes." + name).inc()
            self._fault(h, tti, kind, f"exception: {exc!r}")
            return False
        if deadline_ms is not None and cost_ms > deadline_ms:
            h.overruns += 1
            ob = _obs.live
            if ob is not None:
                ob.registry.counter("survive.app.overruns").inc()
            self._fault(h, tti, kind,
                        f"deadline: {cost_ms} ms > {deadline_ms} ms")
        else:
            self._clean(h, tti)
        return True

    # -- breaker mechanics ------------------------------------------------

    def _clean(self, h: AppHealth, tti: int) -> None:
        h.consecutive_faults = 0
        h.clean_runs += 1
        if h.state is BreakerState.PROBATION:
            h.probation_left -= 1
            if h.probation_left <= 0:
                h._transition(BreakerState.CLOSED, tti)
                ob = _obs.live
                if ob is not None:
                    ob.registry.counter("survive.app.closed").inc()
                logger.info("supervisor: app %s closed its breaker at "
                            "tti %d (probation passed)", h.name, tti)

    def _fault(self, h: AppHealth, tti: int, kind: str,
               reason: str) -> None:
        h.consecutive_faults += 1
        h.last_fault = reason
        h.faults_by_kind[kind] = h.faults_by_kind.get(kind, 0) + 1
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("survive.app.faults").inc()
            ob.registry.counter("survive.app.faults." + h.name).inc()
        logger.warning("supervisor: app %s fault (%s pattern) at tti %d: "
                       "%s", h.name, kind, tti, reason)
        if h.state is BreakerState.PROBATION:
            # One strike during probation: straight back to quarantine,
            # with the cooldown escalated so a crash-looper backs off.
            self._quarantine(h, tti)
        elif h.consecutive_faults >= MAX_CONSECUTIVE_FAULTS:
            self._quarantine(h, tti)

    def _quarantine(self, h: AppHealth, tti: int) -> None:
        h.quarantines += 1
        # Every re-quarantine doubles the cooldown, up to the cap.
        h.cooldown_ttis = capped_doubling(
            COOLDOWN_TTIS, MAX_COOLDOWN_TTIS, h.quarantines - 1)
        h.quarantined_at_tti = tti
        h.consecutive_faults = 0
        h.probation_left = 0
        h._transition(BreakerState.QUARANTINED, tti)
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("survive.app.quarantines").inc()
            ob.registry.counter("survive.app.quarantines." + h.name).inc()
            ob.registry.gauge("survive.app.quarantined_now").set(
                len(self.quarantined_names()))
        logger.error("supervisor: app %s QUARANTINED at tti %d for %d "
                     "TTIs (%s)", h.name, tti, h.cooldown_ttis,
                     h.last_fault)

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every supervised app's health (monitoring)."""
        return {
            name: {
                "state": h.state.value,
                "crashes": h.crashes,
                "overruns": h.overruns,
                "quarantines": h.quarantines,
                "readmissions": h.readmissions,
                "faults_by_kind": dict(h.faults_by_kind),
            }
            for name, h in sorted(self._health.items())
        }
