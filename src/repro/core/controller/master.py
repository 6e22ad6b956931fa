"""The FlexRAN Master Controller.

Ties together the components of the paper's Fig. 4: the RIB and its
single-writer updater, the Task Manager running the TTI cycle, the
Events Notification Service, the application Registry and the
northbound API.  The master is deliberately *not* OpenFlow-based --
radio resources do not fit the flow abstraction and RAN control needs
per-TTI reaction times (Section 4.3.3).

The master learns the network through the protocol alone: an agent's
``Hello`` triggers a configuration request, UE attach/detach events
trigger UE-configuration refreshes, and everything else arrives as
statistics and event messages applied by the RIB updater.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import obs as _obs
from repro.core.apps.base import App
from repro.core.controller.events import EventNotificationService
from repro.core.controller.northbound import NorthboundApi
from repro.core.controller.registry import RegistryService, Registration
from repro.core.controller.rib import AgentLiveness, Rib
from repro.core.controller.rib_updater import RibUpdater
from repro.core.controller.task_manager import (
    DEFAULT_TTI_BUDGET_MS,
    DEFAULT_UPDATER_SHARE,
    TaskManager,
)
from repro.core.protocol.messages import (
    EchoReply,
    EchoRequest,
    EventNotification,
    EventType,
    FlexRanMessage,
    Header,
    Hello,
)
from repro.core.survive.supervisor import AppSupervisor, SupervisionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.survive.snapshot import CheckpointStore
from repro.net.transport import ProtocolEndpoint, TransportClosed

logger = logging.getLogger(__name__)


ECHO_PERIOD_TTIS = 500
"""How often the master probes a quiet agent with an EchoRequest."""

LIVENESS_TIMEOUT_TTIS = 1500
"""Silence threshold after which an agent is declared dead."""

DEAD_GC_TTIS = 10_000
"""Silence threshold after which a dead, detached agent's RIB subtree
is garbage-collected."""


class MasterController:
    """The brain of the FlexRAN control plane."""

    def __init__(self, *, realtime: bool = True,
                 tti_budget_ms: float = DEFAULT_TTI_BUDGET_MS,
                 updater_share: float = DEFAULT_UPDATER_SHARE,
                 echo_period_ttis: int = ECHO_PERIOD_TTIS,
                 liveness_timeout_ttis: int = LIVENESS_TIMEOUT_TTIS,
                 stale_after_ttis: Optional[int] = None,
                 dead_gc_ttis: int = DEAD_GC_TTIS,
                 supervision: bool = True,
                 supervision_policy: Optional[SupervisionPolicy] = None,
                 checkpoint_period_ttis: Optional[int] = None,
                 checkpoint_keep: int = 4) -> None:
        # Constructor kwargs, kept verbatim so respawn() can build an
        # identically-configured replacement after a controller crash.
        self._config = dict(
            realtime=realtime, tti_budget_ms=tti_budget_ms,
            updater_share=updater_share,
            echo_period_ttis=echo_period_ttis,
            liveness_timeout_ttis=liveness_timeout_ttis,
            stale_after_ttis=stale_after_ttis,
            dead_gc_ttis=dead_gc_ttis, supervision=supervision,
            supervision_policy=supervision_policy,
            checkpoint_period_ttis=checkpoint_period_ttis,
            checkpoint_keep=checkpoint_keep)
        self.rib = Rib()
        self.updater = RibUpdater(self.rib)
        self.registry = RegistryService()
        # One supervisor shared by both app entry points (periodic slot
        # and event fan-out) so a single breaker governs each app.
        self.supervisor: Optional[AppSupervisor] = (
            AppSupervisor(supervision_policy) if supervision else None)
        self.events = EventNotificationService(
            self.registry, supervisor=self.supervisor)
        self.task_manager = TaskManager(
            self.registry, self.events, realtime=realtime,
            tti_budget_ms=tti_budget_ms, updater_share=updater_share,
            supervisor=self.supervisor)
        self.northbound = NorthboundApi(self)
        # Imported at use site: snapshot.py needs the RIB node classes,
        # which would close an import cycle at module scope.
        from repro.core.survive.snapshot import CheckpointStore
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore(checkpoint_period_ttis, keep=checkpoint_keep)
            if checkpoint_period_ttis else None)
        #: TTI of the snapshot this master was restored from (-1: cold).
        self.restored_from_tti = -1

        self._endpoints: Dict[int, ProtocolEndpoint] = {}
        self._xid = 0
        self.now = 0
        if echo_period_ttis <= 0 or liveness_timeout_ttis <= echo_period_ttis:
            raise ValueError(
                "liveness timeout must exceed the echo period "
                f"(got {liveness_timeout_ttis} <= {echo_period_ttis})")
        self.echo_period_ttis = echo_period_ttis
        self.liveness_timeout_ttis = liveness_timeout_ttis
        # STALE is an intermediate warning state between "current" and
        # "dead"; by default it coincides with the first echo probe.
        self.stale_after_ttis = (stale_after_ttis if stale_after_ttis
                                 is not None else echo_period_ttis)
        if not (0 < self.stale_after_ttis < liveness_timeout_ttis):
            raise ValueError(
                "stale threshold must fall between 0 and the liveness "
                f"timeout (got {self.stale_after_ttis})")
        if dead_gc_ttis < liveness_timeout_ttis:
            raise ValueError(
                "GC threshold must be >= the liveness timeout "
                f"(got {dead_gc_ttis} < {liveness_timeout_ttis})")
        self.dead_gc_ttis = dead_gc_ttis
        self._last_echo_sent: Dict[int, int] = {}
        self._last_config_request: Dict[int, int] = {}
        self._last_ue_config_request: Dict[int, int] = {}
        self._cycle_hooks: List[Callable[[int], None]] = []
        self.agents_declared_dead = 0
        self.agent_reattaches = 0
        self.agents_garbage_collected = 0

    # -- wiring -----------------------------------------------------------

    def connect_agent(self, agent_id: int, endpoint: ProtocolEndpoint) -> None:
        """Attach the master side of an agent's control connection."""
        if agent_id in self._endpoints:
            raise ValueError(f"agent {agent_id} already connected")
        self._endpoints[agent_id] = endpoint
        logger.info("master: agent %d connected", agent_id)

    def disconnect_agent(self, agent_id: int) -> None:
        self._endpoints.pop(agent_id, None)

    def agent_endpoints(self) -> Dict[int, ProtocolEndpoint]:
        return dict(self._endpoints)

    def add_app(self, app: App) -> Registration:
        """Register and start a controller application."""
        registration = self.registry.register(app)
        app.on_start(self.northbound)
        return registration

    def next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def add_cycle_hook(self, hook: Callable[[int], None]
                       ) -> Callable[[int], None]:
        """Register a callable invoked at the end of every :meth:`tick`.

        Hooks run on the controller thread *after* the Task Manager
        cycle, so they see the RIB as updated this TTI and may issue
        northbound commands under the single-writer discipline.  The
        northbound service plane uses this to pump externally-submitted
        commands and sample RIB streams.  A hook that raises is removed
        (fault containment).  Returns *hook* for later removal.
        """
        self._cycle_hooks.append(hook)
        return hook

    def remove_cycle_hook(self, hook: Callable[[int], None]) -> None:
        try:
            self._cycle_hooks.remove(hook)
        except ValueError:
            pass

    def send(self, agent_id: int, message: FlexRanMessage) -> None:
        """Transmit one protocol message to an agent."""
        try:
            endpoint = self._endpoints[agent_id]
        except KeyError:
            raise KeyError(f"agent {agent_id} is not connected") from None
        try:
            endpoint.send(message, now=self.now)
        except TransportClosed:
            # A closed connection is a down link: its endpoint has
            # accounted the frame as dropped, and whoever supervises
            # the agent (liveness here, the shard supervisor in a
            # cluster) deals with it -- a command must not crash the
            # TTI cycle that issued it.
            pass

    # -- the TTI cycle ------------------------------------------------------

    def tick(self, now: int) -> None:
        """MASTER phase: run one Task Manager cycle."""
        ob = _obs.get()
        self.now = now
        if ob.enabled:
            with ob.tracer.span("master", "tick", tti=now):
                self.task_manager.cycle(now, self.drain_agents,
                                        self.northbound)
        else:
            self.task_manager.cycle(now, self.drain_agents,
                                    self.northbound)
        if self.checkpoints is not None and now > 0:
            self.checkpoints.maybe_take(self, now)
        if self._cycle_hooks:
            for hook in tuple(self._cycle_hooks):
                try:
                    hook(now)
                except Exception:  # noqa: BLE001 - hook containment
                    logger.exception("cycle hook failed; removing it")
                    self.remove_cycle_hook(hook)

    def drain_agents(self) -> None:
        """The RIB-updater slot: apply every received agent message.

        Public because a host may have to run this slot alone: the
        cluster runtime serves a (re)spawned shard's set-up exchange at
        the TTI it is holding, without advancing it or re-running apps.
        """
        ob = _obs.get()
        drained = 0
        gathered: List[EventNotification] = []
        for agent_id in sorted(self._endpoints):
            endpoint = self._endpoints[agent_id]
            messages = endpoint.receive(now=self.now)
            if not messages:
                continue
            self._note_alive(agent_id)
            drained += len(messages)
            gathered.extend(
                self.updater.apply_batch(agent_id, messages, self.now))
            for message in messages:
                self._react(agent_id, message)
                if ob.enabled:
                    # Final lifecycle stage of an uplink message: the
                    # RIB updater and protocol reactions are done.
                    ob.correlator.on_handle(
                        endpoint.peer, endpoint.rx_direction,
                        type(message).__name__, message.header.xid,
                        self.now)
            # A delta's records are garbage once merged into the RIB;
            # held until the next agent's batch has been decoded they
            # double the live young objects and tip the collector over
            # its threshold on every report TTI.
            del messages, message
        if gathered:
            self.events.enqueue(gathered)
        if ob.enabled:
            ob.registry.gauge("master.rib_updater.drained_messages").set(
                drained)
        self._check_liveness()

    # -- liveness -----------------------------------------------------------

    def _note_alive(self, agent_id: int) -> None:
        node = self.rib.get_or_create_agent(agent_id)
        node.last_heard_tti = self.now
        was_dead = not node.alive
        node.set_liveness(AgentLiveness.ACTIVE, self.now)
        if was_dead:
            # Reattach: the agent's RIB subtree may be arbitrarily
            # stale, so resynchronize configuration immediately.
            self.agent_reattaches += 1
            logger.warning("master: agent %d is reachable again",
                           agent_id)
            if agent_id in self._endpoints:
                self._request_config(agent_id)

    def _request_config(self, agent_id: int) -> None:
        self.northbound.request_config(agent_id, scope="enb")
        self._last_config_request[agent_id] = self.now

    def _check_liveness(self) -> None:
        """Probe quiet agents; mark stale/dead ones; GC detached ones."""
        for agent_id in self.rib.agent_ids():
            node = self.rib.agent(agent_id)
            if node.last_heard_tti < 0:
                continue
            silent_for = self.now - node.last_heard_tti
            if (node.liveness is AgentLiveness.DEAD
                    and silent_for >= self.dead_gc_ttis
                    and agent_id not in self._endpoints):
                self.rib.remove_agent(agent_id)
                self._last_echo_sent.pop(agent_id, None)
                self._last_config_request.pop(agent_id, None)
                self.agents_garbage_collected += 1
                logger.warning("master: garbage-collected detached "
                               "agent %d", agent_id)
                continue
            if agent_id not in self._endpoints:
                continue
            last_echo = self._last_echo_sent.get(agent_id, -10 ** 9)
            if (silent_for >= self.echo_period_ttis
                    and self.now - last_echo >= self.echo_period_ttis):
                self.northbound.ping(agent_id)
                self._last_echo_sent[agent_id] = self.now
            # Config self-heal: a reachable agent whose configuration
            # never (fully) arrived -- e.g. the reply was lost on a
            # lossy channel -- gets re-asked on the echo cadence.
            if (node.liveness is not AgentLiveness.DEAD
                    and (not node.cells
                         or any(c.config is None
                                for c in node.cells.values()))):
                last_req = self._last_config_request.get(
                    agent_id, -10 ** 9)
                if self.now - last_req >= self.echo_period_ttis:
                    self._request_config(agent_id)
            if (node.liveness is AgentLiveness.ACTIVE
                    and silent_for >= self.stale_after_ttis):
                node.set_liveness(AgentLiveness.STALE, self.now)
                logger.info("master: agent %d marked stale after %d "
                            "TTIs of silence", agent_id, silent_for)
            if (node.liveness is not AgentLiveness.DEAD
                    and silent_for >= self.liveness_timeout_ttis):
                node.set_liveness(AgentLiveness.DEAD, self.now)
                self.agents_declared_dead += 1
                logger.warning(
                    "master: agent %d declared dead after %d TTIs of "
                    "silence", agent_id, silent_for)

    def live_agent_ids(self) -> List[int]:
        """Agents currently considered reachable."""
        return [a for a in self.rib.agent_ids() if self.rib.agent(a).alive]

    # -- checkpoint-restore -------------------------------------------------

    def respawn(self, *, now: int, restore: bool = True
                ) -> "MasterController":
        """Build the replacement for this (crashed) master.

        Returns a fresh, identically-configured controller with empty
        RIB, registry and supervisor state -- optionally seeded from
        this master's latest checkpoint.  The caller re-attaches the
        agent endpoints and re-registers the applications, then calls
        :meth:`resync` to re-request authoritative agent state.
        """
        from repro.core.survive.snapshot import restore_master
        replacement = MasterController(**self._config)
        replacement.now = now
        snapshot = (self.checkpoints.latest()
                    if restore and self.checkpoints is not None else None)
        if snapshot is not None:
            restore_master(replacement, snapshot)
        return replacement

    def resync(self) -> int:
        """Full agent-driven resynchronization after a restart.

        Re-requests the complete configuration from every connected
        agent -- the agents, not the snapshot, are the authoritative
        state source -- and grants each restored RIB node a liveness
        grace (its silence clock restarts now) so a just-restored
        master does not instantly declare every agent dead.  Returns
        the number of agents asked.
        """
        asked = 0
        for agent_id in sorted(self._endpoints):
            node = self.rib.get_or_create_agent(agent_id)
            node.last_heard_tti = self.now
            self._request_config(agent_id)
            self.northbound.request_config(agent_id, scope="ues")
            asked += 1
        logger.warning("master: resync after restart -- re-requested "
                       "config from %d agents", asked)
        ob = _obs.get()
        if ob.enabled:
            ob.registry.counter("survive.restore.resyncs").inc()
        return asked

    def _react(self, agent_id: int, message: FlexRanMessage) -> None:
        """Protocol-level reactions that keep the RIB view current."""
        if isinstance(message, EchoRequest):
            # Agent-side keepalive probe: answer so the agent's
            # connection supervisor sees the master as alive.
            self.send(agent_id, EchoReply(
                header=Header(xid=message.header.xid, tti=self.now)))
        elif isinstance(message, Hello):
            self._request_config(agent_id)
        elif isinstance(message, EventNotification):
            if message.event_type in (int(EventType.UE_ATTACH),
                                      int(EventType.ATTACH_FAILED),
                                      int(EventType.HANDOVER_COMPLETE)):
                # A "ues"-scoped reply snapshots *every* UE, so one
                # request per (agent, TTI) covers any number of
                # same-TTI attach/handover events -- a mass-attach wave
                # must not fan out into a config-request flood.
                if self._last_ue_config_request.get(agent_id) != self.now:
                    self._last_ue_config_request[agent_id] = self.now
                    self.northbound.request_config(agent_id, scope="ues")
