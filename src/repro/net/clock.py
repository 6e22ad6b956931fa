"""Simulation clock driving the TTI-synchronized world.

FlexRAN operates on LTE's 1 ms Transmission Time Interval (TTI).  Every
component of the reproduction -- traffic sources, the emulated
master--agent links, the master controller's task-manager cycle and the
eNodeB data planes -- advances in lock-step with this clock, mirroring
the subframe-synchronized operation of the real platform.

The clock is deliberately simple: an integer TTI counter plus an ordered
list of tickable phases.  Components register callbacks in a phase, and
``SimClock.run`` invokes the phases in a fixed causal order each TTI:

1. ``TRAFFIC``    -- traffic generators push new data into the EPC/eNB.
2. ``AGENT_TX``   -- agents emit due reports, sync and event messages.
3. ``LINK_UP``    -- uplink (agent->master) message delivery.
4. ``MASTER``     -- the master's TTI cycle (RIB update + applications).
5. ``LINK_DOWN``  -- downlink (master->agent) message delivery.
6. ``AGENT_RX``   -- agents dispatch received protocol messages.
7. ``RAN``        -- eNodeB MAC scheduling, PHY transmission, UE receive.
8. ``POST``       -- metric collection and bookkeeping.

A zero-latency link therefore still exhibits the natural half-loop
ordering: a report emitted at TTI *t* can influence a master decision at
TTI *t* which the agent applies at TTI *t* -- exactly the "fully
synchronized at a TTI level" regime of the paper's Section 5.2.1.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List

TTI_MS = 1.0
"""Duration of one TTI in milliseconds (LTE subframe)."""

SUBFRAMES_PER_FRAME = 10
"""LTE radio frame length in subframes."""


class Phase(enum.IntEnum):
    """Causal ordering of per-TTI work; lower values run first."""

    TRAFFIC = 0
    AGENT_TX = 1
    LINK_UP = 2
    MASTER = 3
    LINK_DOWN = 4
    AGENT_RX = 5
    RAN = 6
    POST = 7


TickFn = Callable[[int], None]


class SimClock:
    """Integer-TTI discrete-time clock with phased callbacks.

    Callbacks registered in the same phase run in registration order,
    which keeps multi-eNodeB scenarios deterministic.
    """

    def __init__(self) -> None:
        self._now = 0
        self._phases: Dict[Phase, List[TickFn]] = {p: [] for p in Phase}

    @property
    def now(self) -> int:
        """Current TTI (milliseconds since simulation start)."""
        return self._now

    def register(self, phase: Phase, fn: TickFn) -> None:
        """Register *fn* to run every TTI during *phase*."""
        self._phases[phase].append(fn)

    def tick(self) -> None:
        """Advance the world by exactly one TTI."""
        for phase in Phase:
            # Iterate over a copy so callbacks may register others.
            for fn in list(self._phases[phase]):
                fn(self._now)
        self._now += 1

    def run(self, ttis: int) -> None:
        """Advance the world by *ttis* TTIs."""
        if ttis < 0:
            raise ValueError(f"cannot run a negative number of TTIs: {ttis}")
        for _ in range(ttis):
            self.tick()
