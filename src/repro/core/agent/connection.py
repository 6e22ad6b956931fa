"""Agent-side control-connection supervisor.

The paper's separation-of-concerns argument (Section 4, Fig. 2) is
that an eNodeB keeps operating through delegated local control even
when the agent's channel to the master degrades or dies.  This module
is the agent half of that claim: a small state machine that

* tracks master liveness through received traffic and its own
  echo-based keepalive probes,
* declares the connection lost after a silence timeout and falls back
  to the agent's local/delegated schedulers (the VSFs already in the
  cache -- no master round trip needed),
* attempts reconnection with capped exponential backoff, and
* on success restores the remote control functions and re-announces
  the agent so the master resynchronizes configuration.

The supervisor is transport-agnostic: it only decides *when* to probe
and *whether* normal traffic should flow; the agent wires in the
actual send/fallback actions as callbacks.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs as _obs
from repro.core.survive.supervisor import capped_doubling

logger = logging.getLogger(__name__)

Action = Callable[[int], None]
"""Callback ``(tti) -> None`` the agent wires to a protocol action."""


KEEPALIVE_PERIOD_TTIS = 100
"""Silence after which the agent probes the master with an echo."""

DISCONNECT_TIMEOUT_TTIS = 300
"""Silence after which the agent falls back to local control."""

RECONNECT_BACKOFF_TTIS = 50
"""First reconnect probe interval; each probe doubles it."""

RECONNECT_BACKOFF_CAP_TTIS = 800
"""Cap of the doubled reconnect interval."""


class ConnectionState(enum.Enum):
    """Where the agent believes its master connection stands."""

    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


@dataclass
class ConnectionStats:
    """Counters of the supervisor's life so far."""

    disconnects: int = 0
    reconnects: int = 0
    reconnect_attempts: int = 0
    keepalives_sent: int = 0


class ConnectionSupervisor:
    """The agent's connection state machine (one per control channel).

    Driven from the agent's TTI hooks: :meth:`heard` per received
    message, :meth:`before_tx` once per AGENT_TX phase.  The supervisor
    stays dormant until the master has spoken once, so an agent wired
    to a never-answering endpoint (standalone deployments, unit
    harnesses) behaves exactly as before.
    """

    def __init__(self, *, send_keepalive: Optional[Action] = None,
                 send_reconnect_probe: Optional[Action] = None,
                 on_disconnect: Optional[Action] = None,
                 on_reconnect: Optional[Action] = None) -> None:
        self.state = ConnectionState.CONNECTED
        self.stats = ConnectionStats()
        #: (tti, state) log of every transition, oldest first.
        self.transitions: List[Tuple[int, ConnectionState]] = []
        self._send_keepalive = send_keepalive
        self._send_reconnect_probe = send_reconnect_probe
        self._on_disconnect = on_disconnect
        self._on_reconnect = on_reconnect
        self._armed = False
        self._last_heard = 0
        self._last_keepalive = -(10 ** 9)
        self._backoff = RECONNECT_BACKOFF_TTIS
        self._next_probe = 0

    @property
    def armed(self) -> bool:
        """Whether the master has ever been heard (liveness active)."""
        return self._armed

    def silent_for(self, now: int) -> int:
        return now - self._last_heard

    # -- inputs ------------------------------------------------------------

    def heard(self, now: int) -> None:
        """A message from the master arrived."""
        self._last_heard = now
        self._armed = True
        if self.state is ConnectionState.DISCONNECTED:
            self._transition(ConnectionState.CONNECTED, now)
            self.stats.reconnects += 1
            self._backoff = RECONNECT_BACKOFF_TTIS
            logger.info("agent connection: master reachable again at "
                        "TTI %d", now)
            if self._on_reconnect is not None:
                self._on_reconnect(now)
            ob = _obs.live
            if ob is not None:
                ob.registry.counter("agent.connection.reconnects").inc()
                ob.tracer.instant("agent", "reconnected", tti=now)

    def before_tx(self, now: int) -> bool:
        """Run the per-TTI liveness logic; returns whether normal
        control traffic (hello/sync/reports/events) should be sent."""
        if not self._armed:
            return True
        if self.state is ConnectionState.CONNECTED:
            silent = self.silent_for(now)
            if silent >= DISCONNECT_TIMEOUT_TTIS:
                self._disconnect(now, silent)
                return False
            if (silent >= KEEPALIVE_PERIOD_TTIS
                    and now - self._last_keepalive
                    >= KEEPALIVE_PERIOD_TTIS):
                self._last_keepalive = now
                self.stats.keepalives_sent += 1
                ob = _obs.live
                if ob is not None:
                    ob.registry.counter("agent.connection.keepalives").inc()
                if self._send_keepalive is not None:
                    self._send_keepalive(now)
            return True
        # DISCONNECTED: probe on the backoff schedule, suppress the rest.
        if now >= self._next_probe:
            self.stats.reconnect_attempts += 1
            ob = _obs.live
            if ob is not None:
                ob.registry.counter(
                    "agent.connection.reconnect_attempts").inc()
            self._backoff = capped_doubling(
                self._backoff, RECONNECT_BACKOFF_CAP_TTIS, 1)
            self._next_probe = now + self._backoff
            if self._send_reconnect_probe is not None:
                self._send_reconnect_probe(now)
        return False

    # -- internals ---------------------------------------------------------

    def _disconnect(self, now: int, silent: int) -> None:
        self._transition(ConnectionState.DISCONNECTED, now)
        self.stats.disconnects += 1
        self._backoff = RECONNECT_BACKOFF_TTIS
        self._next_probe = now + self._backoff
        logger.warning("agent connection: master silent for %d TTIs, "
                       "falling back to local control", silent)
        ob = _obs.live
        if ob is not None:
            ob.registry.counter("agent.connection.disconnects").inc()
            ob.tracer.instant("agent", "disconnected", tti=now,
                              silent_ttis=silent)
        if self._on_disconnect is not None:
            self._on_disconnect(now)

    def _transition(self, state: ConnectionState, now: int) -> None:
        self.state = state
        self.transitions.append((now, state))
