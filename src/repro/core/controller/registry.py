"""Registry Service: application registration at the master.

Applications "use the FlexRAN Application API to register with the
Registry Service of the master" (Section 4.4).  The registry tracks
the deployed applications and their lifecycle state, and is what the
Task Manager consults for the set of runnable tasks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.core.apps.base import App


class AppState(enum.Enum):
    REGISTERED = "registered"
    RUNNING = "running"


@dataclass
class Registration:
    app: App
    state: AppState = AppState.REGISTERED
    runs: int = 0
    events_delivered: int = 0


class RegistryService:
    """Name-keyed registry of controller applications."""

    def __init__(self) -> None:
        self._registrations: Dict[str, Registration] = {}

    def register(self, app: App) -> Registration:
        if app.name in self._registrations:
            raise ValueError(f"application {app.name!r} already registered")
        reg = Registration(app=app, state=AppState.RUNNING)
        self._registrations[app.name] = reg
        return reg

    def _get(self, name: str) -> Registration:
        try:
            return self._registrations[name]
        except KeyError:
            raise KeyError(f"no application named {name!r}") from None

    def registration(self, name: str) -> Registration:
        return self._get(name)

    def runnable(self) -> List[Registration]:
        """Running apps ordered by priority (highest first), then name."""
        regs = [r for r in self._registrations.values()
                if r.state is AppState.RUNNING]
        return sorted(regs, key=lambda r: (-r.app.priority, r.app.name))

    def registrations(self) -> List[Registration]:
        """Every registration regardless of state, registration order."""
        return list(self._registrations.values())

    def names(self) -> List[str]:
        return sorted(self._registrations)

    def describe(self) -> List[Dict[str, object]]:
        """Plain-data view of every registration (the ``/v1/apps``
        payload of the northbound server): what each application
        declares plus its registration's state and counters."""
        return [{**reg.app.describe(), "state": reg.state.value,
                 "runs": reg.runs,
                 "events_delivered": reg.events_delivered}
                for reg in self._registrations.values()]
