"""Events Notification Service: fan events out to applications.

"The Events Notifications Service of the master controller notifies
the applications (mainly of the event-based type) about any changes
that might have occurred on the agent side" (Section 4.4).  Apps
declare their interest through ``App.subscribed_events``; delivery
happens inside the application slot of the TTI cycle.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.controller.registry import RegistryService
from repro.core.survive.supervisor import AppSupervisor
from repro.core.protocol.messages import EventNotification, EventType

logger = logging.getLogger(__name__)

#: An event tap: called once per dispatched event, before app delivery.
EventTap = Callable[[int, EventNotification], None]

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.northbound import NorthboundApi


class EventNotificationService:
    """Dispatches queued agent events to subscribed applications.

    With an :class:`AppSupervisor` attached (shared with the Task
    Manager), each ``on_event`` delivery runs inside the same fault
    boundary as the periodic slot: a handler that raises is counted
    against the app's breaker (event pattern) instead of unwinding the
    dispatch loop, and quarantined apps receive no events at all.
    """

    def __init__(self, registry: RegistryService, *,
                 supervisor: Optional[AppSupervisor] = None) -> None:
        self._registry = registry
        self.supervisor = supervisor
        self._queue: List[EventNotification] = []
        self._taps: List[EventTap] = []
        self.delivered = 0
        #: Events no runnable application subscribes to.
        self.dropped_no_subscriber = 0
        self.dropped_quarantined = 0

    # -- taps -------------------------------------------------------------

    def add_tap(self, tap: EventTap) -> EventTap:
        """Register an observer called for *every* dispatched event.

        Taps see events regardless of app subscriptions -- this is how
        the northbound service plane mirrors the event stream to
        external subscribers without registering a pseudo-app.  A tap
        must be cheap and must not raise (failures are contained and
        logged, and do not disturb app delivery).  Returns *tap* so the
        caller can keep it for :meth:`remove_tap`.
        """
        self._taps.append(tap)
        return tap

    def remove_tap(self, tap: EventTap) -> None:
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def enqueue(self, events: List[EventNotification]) -> None:
        """Queue events gathered during the RIB-update slot."""
        self._queue.extend(events)

    def dispatch(self, tti: int, nb: "NorthboundApi") -> float:
        """Deliver every queued event to its subscribers.

        Returns the declared cost of the deliveries made: what the Task
        Manager charges to the application slot for them.
        """
        events, self._queue = self._queue, []
        sup = self.supervisor
        cost_ms = 0.0
        if self._taps:
            for event in events:
                for tap in tuple(self._taps):
                    try:
                        tap(tti, event)
                    except Exception:  # noqa: BLE001 - tap containment
                        logger.exception("event tap failed; removing it")
                        self.remove_tap(tap)
        for event in events:
            try:
                kind = EventType(event.event_type)
            except ValueError:
                kind = None
            subscribed = False
            for reg in self._registry.runnable():
                app = reg.app
                if kind is None or kind not in app.subscribed_events:
                    continue
                subscribed = True
                if sup is not None and not sup.admitted(app.name, tti):
                    self.dropped_quarantined += 1
                    continue
                cost_ms += app.cost_ms
                if nb is not None:
                    nb.set_current_app(app)
                try:
                    if sup is None:
                        app.on_event(event, tti, nb)
                        completed = True
                    else:
                        completed = sup.call(
                            app.name,
                            lambda: app.on_event(event, tti, nb),
                            tti=tti, kind="event", cost_ms=app.cost_ms,
                            deadline_ms=app.deadline_ms)
                finally:
                    if nb is not None:
                        nb.set_current_app(None)
                if completed:
                    reg.events_delivered += 1
                    self.delivered += 1
            if not subscribed:
                self.dropped_no_subscriber += 1
        return cost_ms
