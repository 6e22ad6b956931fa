"""The northbound subscription routing table.

The transport-neutral heart of the service plane, modeled on the
explicit subscription-management design of O-RAN's RAN Connection API:
every external stream is a row in a routing table that says *what*
(event classes, one UE, one cell, the TTI heartbeat), *for whom* (the
subscription id the frontend hands the client), and *how full* its
delivery queue is.  Subscribe and unsubscribe are explicit operations
against this table; nothing is implicit in connection state.

Publishing rules
----------------

Publishes happen on the controller (simulation) thread inside the TTI
loop, and so does consumption: the server's pump hands queued frames
to the sockets at the end of the same cycle.  Three rules keep the TTI
loop unharmed by slow or dead consumers:

* **Match indexes.**  ``subscribe``/``unsubscribe`` rebuild immutable
  per-kind tuples; ``publish`` walks one of them and never scans the
  whole table.
* **Encode once, append everywhere.**  The publisher serializes an
  item to JSON bytes *once*; fanning out to N subscribers is N deque
  appends of the same bytes object.
* **Bounded queues, drop-oldest.**  Each subscription owns a bounded
  deque.  A consumer that cannot keep up loses its *oldest* items (the
  freshest state wins, as for any telemetry stream) and the drop is
  counted -- on the subscription and on the obs counter
  ``nb.fanout.dropped.<kind>`` -- instead of ever stalling the
  publisher.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs as _obs

#: Stream kinds a subscription can route.
KIND_EVENTS = "events"
KIND_UE = "ue"
KIND_CELL = "cell"
KIND_TTI = "tti"

KINDS = (KIND_EVENTS, KIND_UE, KIND_CELL, KIND_TTI)

DEFAULT_QUEUE_CAPACITY = 256
"""Items buffered per subscription before drop-oldest kicks in."""


class Subscription:
    """One row of the routing table: a client's live stream."""

    __slots__ = ("sub_id", "kind", "key", "event_classes", "period_ttis",
                 "queue", "capacity", "drops", "delivered", "published",
                 "created_tti", "closed")

    def __init__(self, sub_id: int, kind: str, *,
                 key: Optional[Tuple[int, ...]] = None,
                 event_classes: Optional[frozenset] = None,
                 period_ttis: int = 1,
                 capacity: int = DEFAULT_QUEUE_CAPACITY,
                 created_tti: int = 0) -> None:
        self.sub_id = sub_id
        self.kind = kind
        self.key = key
        self.event_classes = event_classes
        self.period_ttis = period_ttis
        self.capacity = capacity
        #: (payload bytes, publish perf_counter stamp) pairs.
        self.queue: Deque[Tuple[bytes, float]] = deque(maxlen=capacity)
        self.drops = 0
        self.delivered = 0
        self.published = 0
        self.created_tti = created_tti
        self.closed = False

    def matches_event(self, event_class: str) -> bool:
        return (self.event_classes is None
                or event_class in self.event_classes)

    def describe(self) -> Dict[str, object]:
        """Plain-data row for ``GET /v1/subscriptions``."""
        return {
            "id": self.sub_id,
            "kind": self.kind,
            "key": list(self.key) if self.key else None,
            "event_classes": (sorted(self.event_classes)
                              if self.event_classes is not None else None),
            "period_ttis": self.period_ttis,
            "queued": len(self.queue),
            "capacity": self.capacity,
            "published": self.published,
            "delivered": self.delivered,
            "drops": self.drops,
            "created_tti": self.created_tti,
        }


class SubscriptionTable:
    """Explicit subscription routing table.

    Subscribe and unsubscribe replace the match indexes wholesale; the
    publisher reads the current ones.
    """

    def __init__(self) -> None:
        self._next_id = 1
        self._subs: Dict[int, Subscription] = {}
        # Immutable match indexes, rebuilt on churn.
        self._event_subs: Tuple[Subscription, ...] = ()
        self._tti_subs: Tuple[Subscription, ...] = ()
        self._ue_subs: Dict[Tuple[int, int], Tuple[Subscription, ...]] = {}
        self._cell_subs: Dict[Tuple[int, int], Tuple[Subscription, ...]] = {}

    # -- membership -------------------------------------------------------

    def subscribe(self, kind: str, *,
                  key: Optional[Tuple[int, ...]] = None,
                  event_classes: Optional[frozenset] = None,
                  period_ttis: int = 1,
                  capacity: int = DEFAULT_QUEUE_CAPACITY,
                  created_tti: int = 0) -> Subscription:
        if kind not in KINDS:
            raise ValueError(f"unknown stream kind {kind!r}")
        if kind in (KIND_UE, KIND_CELL):
            if key is None or len(key) != 2:
                raise ValueError(f"{kind} stream needs an (agent, id) key")
        if period_ttis < 1:
            raise ValueError(f"period must be >= 1 TTI, got {period_ttis}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        sub = Subscription(self._next_id, kind, key=key,
                           event_classes=event_classes,
                           period_ttis=period_ttis, capacity=capacity,
                           created_tti=created_tti)
        self._next_id += 1
        self._subs[sub.sub_id] = sub
        self._reindex()
        ob = _obs.live
        if ob is not None:
            ob.registry.gauge("nb.subscriptions.active").set(len(self._subs))
        return sub

    def unsubscribe(self, sub_id: int) -> bool:
        """Remove a row; returns whether it existed."""
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        sub.closed = True
        self._reindex()
        ob = _obs.live
        if ob is not None:
            ob.registry.gauge("nb.subscriptions.active").set(len(self._subs))
        return True

    def _reindex(self) -> None:
        """Rebuild the immutable match indexes."""
        subs = list(self._subs.values())
        self._event_subs = tuple(s for s in subs if s.kind == KIND_EVENTS)
        self._tti_subs = tuple(s for s in subs if s.kind == KIND_TTI)
        ue: Dict[Tuple[int, int], List[Subscription]] = {}
        cell: Dict[Tuple[int, int], List[Subscription]] = {}
        for s in subs:
            if s.kind == KIND_UE:
                ue.setdefault(s.key, []).append(s)  # type: ignore[arg-type]
            elif s.kind == KIND_CELL:
                cell.setdefault(s.key, []).append(s)  # type: ignore[arg-type]
        self._ue_subs = {k: tuple(v) for k, v in ue.items()}
        self._cell_subs = {k: tuple(v) for k, v in cell.items()}

    def describe(self) -> List[Dict[str, object]]:
        return [s.describe() for s in self._subs.values()]

    def __len__(self) -> int:
        return len(self._subs)

    # -- sampled-stream enumeration ---------------------------------------

    def sampled_subs(self) -> Tuple[Tuple[Subscription, ...], ...]:
        """Current per-UE and per-cell subscription groups."""
        return (tuple(self._ue_subs.values())
                + tuple(self._cell_subs.values()))

    def tti_subs(self) -> Tuple[Subscription, ...]:
        return self._tti_subs

    def has_event_subs(self) -> bool:
        """Cheap guard so publishers can skip encoding entirely."""
        return bool(self._event_subs)

    # -- publishing (hot path) --------------------------------------------

    def publish_event(self, event_class: str, payload: bytes,
                      stamp: float) -> int:
        """Fan one encoded event out to every matching event stream.

        Returns the number of subscriptions reached.
        """
        count = 0
        for sub in self._event_subs:
            if not sub.matches_event(event_class):
                continue
            self._append(sub, payload, stamp)
            count += 1
        return count

    def publish_to(self, sub: Subscription, payload: bytes,
                   stamp: float) -> None:
        """Append one encoded item to a single subscription's queue."""
        self._append(sub, payload, stamp)

    @staticmethod
    def _append(sub: Subscription, payload: bytes, stamp: float) -> None:
        queue = sub.queue
        if len(queue) == queue.maxlen:
            # deque(maxlen) evicts the oldest on append: slow consumer.
            sub.drops += 1
            ob = _obs.live
            if ob is not None:
                ob.registry.counter(f"nb.fanout.dropped.{sub.kind}").inc()
        queue.append((payload, stamp))
        sub.published += 1
