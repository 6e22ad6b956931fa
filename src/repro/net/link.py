"""Emulated master--agent control channel with latency and accounting.

The paper evaluates FlexRAN over dedicated Gigabit Ethernet and then
degrades the channel with ``netem`` to study latency effects
(Section 5.3).  :class:`EmulatedLink` reproduces that: a unidirectional
FIFO with configurable one-way latency (settable at runtime, like
``tc netem delay``) and per-category byte/message counters, which are
the raw data behind the signaling-overhead breakdowns of Fig. 7
("agent management" / "master-agent sync" / "stats reporting" /
"master commands").

Beyond latency, the link is *fault injectable* -- the full ``netem``
repertoire the resilience experiments need: random per-message loss,
bounded delay jitter, and scripted partition windows
(:meth:`EmulatedLink.fail_at` / :meth:`EmulatedLink.heal_at`).  A down
link drops everything offered to it and everything still in flight,
modelling a broken TCP connection whose unacked data is gone until the
peers re-establish the session.  Delivery stays FIFO under jitter and
runtime latency changes (TCP never reorders).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.clock import TTI_MS


@dataclass
class CategoryCounter:
    """Byte and message counters for one traffic category."""

    messages: int = 0
    bytes: int = 0

    def add(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes += nbytes


@dataclass(order=True)
class _Transit:
    deliver_tti: int
    seq: int
    payload: Any = field(compare=False)
    size_bytes: int = field(compare=False, default=0)
    category: str = field(compare=False, default="default")


class EmulatedLink:
    """One direction of the control channel.

    Messages are enqueued with :meth:`send` and become available via
    :meth:`deliver_due` once their latency has elapsed.  FIFO order is
    preserved among messages with equal delivery time (TCP semantics --
    the paper's transport).
    """

    def __init__(self, *, one_way_latency_ms: float = 0.0,
                 name: str = "link", seed: int = 0) -> None:
        self.name = name
        #: Read-only to callers: :meth:`set_latency_ms` changes it.
        self.one_way_latency_ttis = self._to_ttis(one_way_latency_ms)
        self._queue: List[_Transit] = []
        self._seq = 0
        self.counters: Dict[str, CategoryCounter] = {}
        self.total_bytes = 0
        self.total_messages = 0
        self._first_send_tti: Optional[int] = None
        self._last_send_tti = 0
        # -- fault-injection state --
        self.up = True
        self._rng = random.Random(seed)
        self._loss_probability = 0.0
        self._jitter_ttis = 0.0
        self._events: List[Tuple[int, bool]] = []  # (tti, up) scripted
        self._last_scheduled_deliver = 0
        self.dropped_messages = 0
        self.dropped_bytes = 0
        # Conservation accounting: every byte offered to the link is
        # eventually delivered, dropped, or still in flight --
        # offered_bytes == delivered_bytes + dropped_bytes
        #                  + in_flight_bytes().
        self.offered_messages = 0
        self.offered_bytes = 0
        self.delivered_messages = 0
        self.delivered_bytes = 0

    @staticmethod
    def _to_ttis(latency_ms: float) -> int:
        if latency_ms < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ms}")
        return int(math.ceil(latency_ms / TTI_MS))

    def set_latency_ms(self, latency_ms: float) -> None:
        """Change the link latency at runtime (the netem knob)."""
        self.one_way_latency_ttis = self._to_ttis(latency_ms)

    # -- fault injection ---------------------------------------------------

    def set_loss(self, probability: float) -> None:
        """Set the per-message random loss probability (netem ``loss``)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1], got {probability}")
        self._loss_probability = probability

    def set_jitter_ms(self, jitter_ms: float) -> None:
        """Set the maximum extra random delay (netem ``delay ... jitter``)."""
        if jitter_ms < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter_ms}")
        self._jitter_ttis = jitter_ms / TTI_MS

    def fail_at(self, tti: int) -> None:
        """Script a link failure: from *tti* on, everything is dropped."""
        self._add_event(tti, False)

    def heal_at(self, tti: int) -> None:
        """Script the link coming back up at *tti*."""
        self._add_event(tti, True)

    def _add_event(self, tti: int, up: bool) -> None:
        # Scripted events must alternate down/up in time order;
        # otherwise overlapping windows would silently truncate each
        # other (the earlier window's heal ends the later one).
        events = sorted(self._events + [(tti, up)])
        state = self.up
        for _, event_up in events:
            if event_up == state:
                raise ValueError(
                    f"scripted {'heal' if up else 'failure'} at TTI "
                    f"{tti} overlaps an existing fail/heal window")
            state = event_up
        self._events = events

    def set_up(self, up: bool) -> None:
        """Flip the link state immediately (unscripted fail/heal)."""
        if self.up and not up:
            self._drop_in_flight()
        self.up = up

    def _advance_events(self, now: int) -> None:
        while self._events and self._events[0][0] <= now:
            tti, up = self._events.pop(0)
            if self.up and not up:
                # Messages already deliverable before the failure
                # instant had reached the peer; only true in-flight
                # data is lost.
                self._drop_in_flight(after_tti=tti)
            self.up = up

    def _drop_in_flight(self, *, after_tti: Optional[int] = None) -> None:
        """A dying link loses its unacked in-flight data."""
        if after_tti is None:
            doomed, kept = self._queue, []
        else:
            doomed = [t for t in self._queue if t.deliver_tti >= after_tti]
            kept = [t for t in self._queue if t.deliver_tti < after_tti]
        self.dropped_messages += len(doomed)
        self.dropped_bytes += sum(t.size_bytes for t in doomed)
        self._queue = kept
        heapq.heapify(self._queue)

    def send(self, payload: Any, size_bytes: int, *, now: int,
             category: str = "default") -> int:
        """Enqueue *payload*; returns its delivery TTI (-1 if dropped)."""
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        self._advance_events(now)
        self.offered_messages += 1
        self.offered_bytes += size_bytes
        if not self.up or (self._loss_probability > 0.0
                           and self._rng.random() < self._loss_probability):
            self.dropped_messages += 1
            self.dropped_bytes += size_bytes
            return -1
        deliver = now + self.one_way_latency_ttis
        if self._jitter_ttis > 0.0:
            deliver += int(round(self._rng.uniform(0, self._jitter_ttis)))
        # TCP never reorders: delivery is clamped to stay FIFO even when
        # jitter (or a runtime latency drop) would overtake earlier data.
        deliver = max(deliver, self._last_scheduled_deliver)
        self._last_scheduled_deliver = deliver
        heapq.heappush(self._queue, _Transit(
            deliver_tti=deliver, seq=self._seq, payload=payload,
            size_bytes=size_bytes, category=category))
        self._seq += 1
        self.counters.setdefault(category, CategoryCounter()).add(size_bytes)
        self.total_bytes += size_bytes
        self.total_messages += 1
        if self._first_send_tti is None:
            self._first_send_tti = now
        self._last_send_tti = now
        return deliver

    def deliver_due(self, now: int) -> List[Any]:
        """Pop every message whose delivery time has arrived."""
        self._advance_events(now)
        out: List[Any] = []
        while self._queue and self._queue[0].deliver_tti <= now:
            transit = heapq.heappop(self._queue)
            self.delivered_messages += 1
            self.delivered_bytes += transit.size_bytes
            out.append(transit.payload)
        return out

    def in_flight(self) -> int:
        """Messages currently traversing the link."""
        return len(self._queue)

    def in_flight_bytes(self) -> int:
        """Bytes currently traversing the link."""
        return sum(t.size_bytes for t in self._queue)


class DuplexChannel:
    """The agent<->master control channel: an uplink/downlink link pair.

    Latency is configured as a round-trip and split symmetrically, the
    assumption the paper makes when reasoning about the schedule-ahead
    bound ("Assuming a symmetrical RTT delay").
    """

    def __init__(self, *, rtt_ms: float = 0.0, name: str = "channel",
                 seed: int = 0) -> None:
        self.name = name
        one_way = rtt_ms / 2.0
        self.uplink = EmulatedLink(one_way_latency_ms=one_way,
                                   name=f"{name}.uplink", seed=seed)
        self.downlink = EmulatedLink(one_way_latency_ms=one_way,
                                     name=f"{name}.downlink", seed=seed + 1)

    def set_rtt_ms(self, rtt_ms: float) -> None:
        """Reconfigure the round-trip latency, split symmetrically."""
        self.uplink.set_latency_ms(rtt_ms / 2.0)
        self.downlink.set_latency_ms(rtt_ms / 2.0)

    # -- fault injection (applied to both directions) ----------------------

    @property
    def links(self) -> Tuple[EmulatedLink, EmulatedLink]:
        return self.uplink, self.downlink

    def set_loss(self, probability: float) -> None:
        for link in self.links:
            link.set_loss(probability)

    def set_jitter_ms(self, jitter_ms: float) -> None:
        for link in self.links:
            link.set_jitter_ms(jitter_ms)

    def fail_at(self, tti: int) -> None:
        for link in self.links:
            link.fail_at(tti)

    def heal_at(self, tti: int) -> None:
        for link in self.links:
            link.heal_at(tti)

    def partition(self, start_tti: int, end_tti: int) -> None:
        """Script a full two-way partition over ``[start_tti, end_tti)``."""
        if end_tti <= start_tti:
            raise ValueError(
                f"partition window must be non-empty, got "
                f"[{start_tti}, {end_tti})")
        self.fail_at(start_tti)
        self.heal_at(end_tti)
