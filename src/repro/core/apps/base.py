"""Application model for the master's northbound side.

RAN control and management applications "run as threads" over the
master and are "broadly divided into two categories: periodic or
event-based" (Section 4.4).  Here an application is an object the Task
Manager drives: ``run`` fires on the app's period during the TTI
cycle's application slot; ``on_event`` fires when the Events
Notification Service delivers a subscribed event.  An app may use
both patterns.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Set

from repro.core.protocol.messages import EventNotification, EventType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.northbound import NorthboundApi


class App(abc.ABC):
    """Base class for FlexRAN controller applications."""

    #: Unique application name (registry key).
    name: str = "app"
    #: Task-manager priority; higher runs earlier in the app slot.
    #: Time-critical apps (e.g. a centralized MAC scheduler) use high
    #: values, monitoring apps low ones.
    priority: int = 0
    #: Execution period in TTIs for the periodic pattern (0 = never).
    period_ttis: int = 1
    #: Event types this app subscribes to (event-based pattern).
    subscribed_events: Set[EventType] = frozenset()
    #: Declared cost of one invocation (``run`` or an ``on_event``
    #: delivery) in simulated ms: what the Task Manager charges to the
    #: application slot and the supervisor holds against the deadline.
    cost_ms: float = 0.0
    #: Per-invocation deadline enforced by the app supervisor; None
    #: defers to the Task Manager's app-slot budget.
    deadline_ms: Optional[float] = None

    def on_start(self, nb: "NorthboundApi") -> None:
        """Called once when the app is registered with the master."""

    def run(self, tti: int, nb: "NorthboundApi") -> None:
        """Periodic execution slot.  Default: nothing."""

    def on_event(self, event: EventNotification, tti: int,
                 nb: "NorthboundApi") -> None:
        """Event-based execution.  Default: nothing."""

    def is_due(self, tti: int) -> bool:
        """Whether the periodic pattern fires at *tti*."""
        return self.period_ttis > 0 and tti % self.period_ttis == 0

    def describe(self) -> dict:
        """What the application declares, as plain data."""
        return {
            "name": self.name,
            "priority": self.priority,
            "period_ttis": self.period_ttis,
            "cost_ms": self.cost_ms,
            "deadline_ms": self.deadline_ms,
            "subscribed_events": sorted(
                e.name.lower() for e in self.subscribed_events),
        }
