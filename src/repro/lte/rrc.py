"""RRC: UE connection state machine and mobility actions.

The Radio Resource Control model covers what FlexRAN observes and
commands: random access and attachment (the paper's event triggers "UE
attachment, random access attempt"), measurement reporting, and the
handover *action* (the control decision lives in the controller; the
eNodeB only executes it, per the control/data split of Section 4.2).

Attachment requires actual scheduled delivery of signalling traffic:
the connection setup handshake is enqueued on SRB1 and the UE only
reaches CONNECTED once the scheduler has delivered it.  This is what
makes the Fig. 9 result reproducible -- when every scheduling decision
misses its deadline, "the UE was unable to complete network
attachment".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

ATTACH_SIGNALLING_BYTES = 384
"""Bytes of SRB1 signalling (RRC setup + reconfiguration + security)
that must be delivered before the UE is CONNECTED."""

ATTACH_TIMEOUT_TTIS = 2000
"""Attachment deadline: 2 s without completing the handshake fails the
attach, mirroring T300/T301-style supervision."""

RA_DELAY_TTIS = 10
"""TTIs between the random-access attempt and SRB1 setup enqueue
(preamble + RAR + msg3 exchange, abstracted)."""


class RrcState(enum.Enum):
    """UE connection states (simplified 36.331 state machine)."""

    IDLE = "idle"
    RANDOM_ACCESS = "random_access"
    CONNECTING = "connecting"
    CONNECTED = "connected"
    FAILED = "failed"


@dataclass
class RrcUeContext:
    """Per-UE RRC bookkeeping at the eNodeB."""

    rnti: int
    state: RrcState = RrcState.IDLE
    ra_tti: int = -1
    setup_enqueued: bool = False
    srb_delivered_bytes: int = 0
    connected_tti: int = -1
    handovers: int = 0


class RrcEvent(enum.Enum):
    """Event kinds surfaced to the FlexRAN agent."""

    RANDOM_ACCESS = "random_access"
    UE_ATTACHED = "ue_attached"
    ATTACH_FAILED = "attach_failed"
    HANDOVER_COMPLETE = "handover_complete"
    MEASUREMENT = "measurement"


class RrcEntity:
    """RRC procedures for all UEs of one eNodeB.

    The entity is deliberately passive: it advances state machines when
    the data plane tells it signalling bytes were delivered, and it
    notifies observers (the FlexRAN agent) of state transitions.  Every
    transition is also recorded by calling *on_change* with the RNTI.
    """

    def __init__(self, on_change: Callable[[int], None]) -> None:
        self._on_change = on_change
        self._contexts: Dict[int, RrcUeContext] = {}
        self._observers: List[Callable[[RrcEvent, int, int], None]] = []
        # RNTIs whose attach is still in flight (RANDOM_ACCESS or
        # CONNECTING): the only contexts the per-TTI supervision loops
        # need to visit, so they stay O(attaching) not O(attached).
        self._attaching: Set[int] = set()

    def subscribe(self, fn: Callable[[RrcEvent, int, int], None]) -> None:
        """Register ``fn(event, rnti, tti)`` for RRC events."""
        self._observers.append(fn)

    def _notify(self, event: RrcEvent, rnti: int, tti: int) -> None:
        for fn in list(self._observers):
            fn(event, rnti, tti)

    def context(self, rnti: int) -> RrcUeContext:
        if rnti not in self._contexts:
            raise KeyError(f"no RRC context for RNTI {rnti}")
        return self._contexts[rnti]

    def contexts(self) -> List[RrcUeContext]:
        return [self._contexts[r] for r in sorted(self._contexts)]

    def state_of(self, rnti: int) -> Optional[RrcState]:
        """The UE's RRC state, or ``None`` for an unknown RNTI."""
        ctx = self._contexts.get(rnti)
        return ctx.state if ctx is not None else None

    def attaching_rntis(self) -> List[int]:
        """RNTIs with an attach in flight, in RNTI order."""
        return sorted(self._attaching)

    def start_attach(self, rnti: int, tti: int) -> RrcUeContext:
        """Begin random access for a new UE."""
        if rnti in self._contexts:
            raise ValueError(f"RNTI {rnti} already has an RRC context")
        ctx = RrcUeContext(rnti=rnti, state=RrcState.RANDOM_ACCESS, ra_tti=tti)
        self._contexts[rnti] = ctx
        self._attaching.add(rnti)
        self._on_change(rnti)
        self._notify(RrcEvent.RANDOM_ACCESS, rnti, tti)
        return ctx

    def setup_due(self, rnti: int, tti: int) -> bool:
        """True exactly once, when SRB1 signalling should be enqueued."""
        ctx = self.context(rnti)
        if (ctx.state is RrcState.RANDOM_ACCESS and not ctx.setup_enqueued
                and tti - ctx.ra_tti >= RA_DELAY_TTIS):
            ctx.setup_enqueued = True
            ctx.state = RrcState.CONNECTING
            self._on_change(rnti)
            return True
        return False

    def srb_delivered(self, rnti: int, nbytes: int, tti: int) -> None:
        """Credit delivered SRB1 bytes toward the attach handshake."""
        ctx = self.context(rnti)
        ctx.srb_delivered_bytes += nbytes
        if (ctx.state is RrcState.CONNECTING
                and ctx.srb_delivered_bytes >= ATTACH_SIGNALLING_BYTES):
            ctx.state = RrcState.CONNECTED
            ctx.connected_tti = tti
            self._attaching.discard(rnti)
            self._on_change(rnti)
            self._notify(RrcEvent.UE_ATTACHED, rnti, tti)

    def check_timeouts(self, tti: int) -> List[int]:
        """Fail attaches that exceeded the deadline; returns failed RNTIs."""
        failed: List[int] = []
        if not self._attaching:
            return failed
        for rnti in sorted(self._attaching):
            ctx = self._contexts[rnti]
            if tti - ctx.ra_tti > ATTACH_TIMEOUT_TTIS:
                ctx.state = RrcState.FAILED
                failed.append(rnti)
                self._on_change(rnti)
                self._notify(RrcEvent.ATTACH_FAILED, rnti, tti)
        for rnti in failed:
            self._attaching.discard(rnti)
        return failed

    def is_connected(self, rnti: int) -> bool:
        ctx = self._contexts.get(rnti)
        return ctx is not None and ctx.state is RrcState.CONNECTED

    def complete_handover(self, rnti: int, tti: int) -> None:
        """Record the handover action's completion for *rnti*."""
        ctx = self.context(rnti)
        ctx.handovers += 1
        self._notify(RrcEvent.HANDOVER_COMPLETE, rnti, tti)

    def release(self, rnti: int) -> None:
        """Drop the context (UE detached or handed over away)."""
        self._contexts.pop(rnti, None)
        self._attaching.discard(rnti)
