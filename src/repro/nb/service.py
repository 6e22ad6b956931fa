"""The northbound service core: the controller bridge.

This module is the transport-neutral layer between external clients
and a running :class:`~repro.core.controller.master.MasterController`.
It owns the :class:`~repro.nb.subscriptions.SubscriptionTable` and
bridges it onto the controller through two hooks:

* an **event tap** on the Events Notification Service -- every agent
  event dispatched to apps is also encoded once and fanned out to
  matching external event streams, in the same TTI order apps see;
* a **cycle hook** on the master -- at the end of every TTI the pump
  serves the HTTP frontend's ready sockets (requests run right there
  against the real :class:`NorthboundApi`, so external writes obey
  the same single-writer discipline as in-process apps), samples
  per-UE/per-cell/TTI streams from the RIB, and hands each stream's
  queued frames to its socket.

Nothing in this module touches sockets: tests drive it with a plain
:class:`Simulation`, and the HTTP frontend in :mod:`repro.nb.server`
is the transport it pumps when one is started.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.nb import encoders
from repro.nb.subscriptions import (
    DEFAULT_QUEUE_CAPACITY,
    KIND_CELL,
    KIND_EVENTS,
    KIND_TTI,
    KIND_UE,
    Subscription,
    SubscriptionTable,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.master import MasterController
    from repro.nb.server import NorthboundServer


class NorthboundService:
    """Subscription routing + cycle pump over one master controller."""

    def __init__(self, master: "MasterController") -> None:
        self.master = master
        self.table = SubscriptionTable()
        #: The HTTP frontend the pump serves; its ``start`` sets it.
        self.server: Optional["NorthboundServer"] = None
        self._tap = None
        self._hook = None
        self.events_published = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self) -> None:
        """Hook into the master's event service and TTI cycle."""
        if self._hook is not None:
            return
        self._tap = self.master.events.add_tap(self._on_event)
        self._hook = self.master.add_cycle_hook(self._pump)

    def detach(self) -> None:
        if self._tap is not None:
            self.master.events.remove_tap(self._tap)
            self._tap = None
        if self._hook is not None:
            self.master.remove_cycle_hook(self._hook)
            self._hook = None

    @property
    def attached(self) -> bool:
        return self._hook is not None

    # -- the controller's half --------------------------------------------

    def _on_event(self, tti: int, event) -> None:
        """Event tap: mirror one agent event to external streams."""
        if not self.table.has_event_subs():
            return  # don't pay the encode when nobody is listening
        payload = encoders.json_bytes(encoders.event_to_dict(tti, event))
        stamp = time.perf_counter()
        reached = self.table.publish_event(
            encoders.event_class_name(event), payload, stamp)
        if reached:
            self.events_published += 1

    def _pump(self, tti: int) -> None:
        """Cycle hook: serve requests, sample streams, write frames."""
        server = self.server
        if server is not None:
            server.serve()
        self._sample_streams(tti)
        if server is not None:
            server.flush()

    def _sample_streams(self, tti: int) -> None:
        """Publish due per-UE/per-cell/TTI samples from the RIB."""
        rib = self.master.rib
        tti_subs = self.table.tti_subs()
        if tti_subs:
            payload = None
            for sub in tti_subs:
                if (tti - sub.created_tti) % sub.period_ttis:
                    continue
                if payload is None:
                    agent_ids = rib.agent_ids()
                    payload = encoders.json_bytes(encoders.tti_sample(
                        tti, len(agent_ids),
                        len(self.master.live_agent_ids())))
                    stamp = time.perf_counter()
                self.table.publish_to(sub, payload, stamp)
        for group in self.table.sampled_subs():
            payload = None
            for sub in group:
                if (tti - sub.created_tti) % sub.period_ttis:
                    continue
                if payload is None:
                    payload = self._sample_one(tti, sub)
                    stamp = time.perf_counter()
                self.table.publish_to(sub, payload, stamp)

    def _sample_one(self, tti: int, sub: Subscription) -> bytes:
        rib = self.master.rib
        agent_id, target = sub.key  # type: ignore[misc]
        node = None
        try:
            agent = rib.agent(agent_id)
        except KeyError:
            agent = None
        if sub.kind == KIND_UE:
            if agent is not None:
                for candidate in agent.all_ues():
                    if candidate.rnti == target:
                        node = candidate
                        break
            return encoders.json_bytes(
                encoders.ue_sample(tti, agent_id, node, target))
        if agent is not None:
            node = agent.cells.get(target)
        return encoders.json_bytes(
            encoders.cell_sample(tti, agent_id, node, target))

    # -- subscription management ------------------------------------------

    def subscribe_events(self, classes: Optional[frozenset] = None, *,
                         capacity: int = DEFAULT_QUEUE_CAPACITY
                         ) -> Subscription:
        return self.table.subscribe(
            KIND_EVENTS, event_classes=classes,
            capacity=capacity,
            created_tti=self.master.now)

    def subscribe_ue(self, agent_id: int, rnti: int, *,
                     period_ttis: int = 10,
                     capacity: int = DEFAULT_QUEUE_CAPACITY
                         ) -> Subscription:
        return self.table.subscribe(
            KIND_UE, key=(agent_id, rnti), period_ttis=period_ttis,
            capacity=capacity,
            created_tti=self.master.now)

    def subscribe_cell(self, agent_id: int, cell_id: int, *,
                       period_ttis: int = 10,
                       capacity: int = DEFAULT_QUEUE_CAPACITY
                         ) -> Subscription:
        return self.table.subscribe(
            KIND_CELL, key=(agent_id, cell_id), period_ttis=period_ttis,
            capacity=capacity,
            created_tti=self.master.now)

    def subscribe_tti(self, *, period_ttis: int = 100,
                      capacity: int = DEFAULT_QUEUE_CAPACITY
                         ) -> Subscription:
        return self.table.subscribe(
            KIND_TTI, period_ttis=period_ttis,
            capacity=capacity,
            created_tti=self.master.now)

    def unsubscribe(self, sub_id: int) -> bool:
        return self.table.unsubscribe(sub_id)

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        return {
            "subscriptions": len(self.table),
            "events_published": self.events_published,
            "attached": self.attached,
        }
