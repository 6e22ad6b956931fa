"""The FlexRAN Agent: local controller attached to one base station.

Mirrors the architecture of the paper's Fig. 2: control modules with
their VSFs, the Reports & Events Manager, the message handler and
dispatcher, and the asynchronous communication channel to the master.
The agent can operate standalone (local control via its built-in VSFs,
no master connected) or under a master with any mix of delegated and
centralized control -- the "flexible placement of RAN control
functions" the paper emphasizes.

The loop is radio-agnostic (Section 7.2): an agent is *bound*
(:meth:`FlexRanAgent._attach`) to a data-plane API object and a list of
control modules.  It owns the channel, liveness and fallback, the
dispatcher, the event queue and the handlers of the messages every
technology shares; the rest of its handler table is what each module
declares it consumes (:meth:`ControlModule.message_handlers`).
:class:`FlexRanAgent` binds an eNodeB's API and modules;
:class:`repro.wifi.agent.WifiAgent` overrides the binding with an
access point's and adds nothing else (DESIGN.md, "One agent core,
technology bindings").
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional

from repro import obs as _obs
from repro.core.agent.api import AgentDataPlaneApi
from repro.core.agent.cmi import ControlModule
from repro.core.agent import connection as _connection
from repro.core.agent.connection import ConnectionSupervisor
from repro.core.agent.mac_module import MacControlModule
from repro.core.agent.pdcp_module import PdcpControlModule
from repro.core.agent.rrc_module import RrcControlModule
from repro.core.agent.reports import ReportsManager
from repro.core.delegation import VsfFactoryRegistry, load_vsf
from repro.core.policy import PolicyDocument
from repro.core.protocol.messages import (
    ConfigReply,
    ConfigRequest,
    EchoReply,
    EchoRequest,
    EventNotification,
    EventType,
    FlexRanMessage,
    Header,
    Hello,
    PolicyReconfiguration,
    StatsRequest,
    SubframeTrigger,
    SyncConfig,
    VsfUpdate,
)
from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.enodeb import EnodeB

logger = logging.getLogger(__name__)

EVENT_QUEUE_LIMIT = 256
"""Events retained while the master is unreachable (oldest dropped)."""


class FlexRanAgent:
    """Agent instance: one per base station (Section 3)."""

    def __init__(self, agent_id: int, enb, *,
                 endpoint=None,
                 vsf_registry: Optional[VsfFactoryRegistry] = None,
                 capabilities: Optional[List[str]] = None) -> None:
        self.agent_id = agent_id
        self.endpoint = endpoint
        #: Subframe sync to the master, off until a SyncConfig turns it on.
        self.sync_enabled = False
        self.vsf_registry = vsf_registry or VsfFactoryRegistry()
        self._attach(enb)
        #: Announced in ``Hello``: by default the control module names.
        self.capabilities = capabilities or list(self.modules)

        self.reports = ReportsManager(agent_id, self.api)
        self._event_queue: List[EventNotification] = []
        self.api.subscribe_events(self._queue_event)
        # Sandbox faults (quarantined pushed code) are reported to the
        # master as events so the operator "could quickly identify VSFs
        # that present an unexpected behavior" (Section 4.3.1).
        for module in self.modules.values():
            module.on_vsf_fault(self._on_vsf_fault)

        self._hello_sent = False
        self._last_hello_tti = -(10 ** 9)
        self._xid = 0
        self.messages_handled = 0
        #: Messages dropped because no handler is registered for them.
        self.dispatch_unknown = 0
        #: Messages whose handler raised (caught at the dispatch
        #: boundary so one malformed command cannot kill the agent).
        self.dispatch_errors = 0

        # Connection supervisor: liveness, local fallback, reconnect.
        # Only meaningful with an endpoint; it stays dormant until the
        # master has spoken once.
        self.connection: Optional[ConnectionSupervisor] = None
        self._suspended_remote: List[tuple] = []
        if endpoint is not None:
            self.connection = ConnectionSupervisor(
                send_keepalive=self._send_keepalive,
                send_reconnect_probe=self._send_hello,
                on_disconnect=self._enter_local_control,
                on_reconnect=self._on_reconnected)

        # The messages every technology shares, then what each control
        # module declares it consumes.
        self._handlers: Dict[type, Callable[[FlexRanMessage, int], None]] = {
            EchoRequest: self._handle_echo,
            EchoReply: self._handle_echo_reply,
            ConfigRequest: self._handle_config_request,
            SyncConfig: self._handle_sync_config,
            StatsRequest: self.reports.register,
            VsfUpdate: self._handle_vsf_update,
            PolicyReconfiguration: self._handle_policy,
        }
        for module in self.modules.values():
            self._handlers.update(module.message_handlers())

    def _attach(self, enb: EnodeB) -> None:
        """The technology binding, here an eNodeB's: set ``self.api``
        (the southbound facade; the core uses ``enb_id``, ``cell_ids``,
        ``get_cell_configs``, ``get_ue_configs``, ``collect_ue_stats``
        + ``change_seq``, ``get_cell_stats`` and ``subscribe_events``
        of it) and ``self.modules`` (its control modules by name)."""
        self.enb = enb
        self.api = AgentDataPlaneApi(enb)
        self.mac = MacControlModule(self.api)
        self.rrc = RrcControlModule(self.api)
        self.pdcp = PdcpControlModule(self.api)
        self.modules: Dict[str, ControlModule] = {
            m.name: m for m in (self.mac, self.rrc, self.pdcp)}

    # -- outbound ---------------------------------------------------------

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _send(self, message: FlexRanMessage, now: int) -> None:
        if self.endpoint is None:
            return
        message.header.agent_id = self.agent_id
        message.header.tti = now
        self.endpoint.send(message, now=now)

    def _hello_due(self, now: int) -> bool:
        if not self._hello_sent:
            return True
        # Until the master has spoken once, the announcement may have
        # been lost in transit: keep re-offering it on the keepalive
        # cadence (connection establishment retry).
        return (self.connection is not None
                and not self.connection.armed
                and now - self._last_hello_tti
                >= _connection.KEEPALIVE_PERIOD_TTIS)

    def _send_keepalive(self, now: int) -> None:
        self._send(EchoRequest(header=Header(xid=self._next_xid())), now)

    def _send_hello(self, now: int) -> None:
        # Also the reconnect probe: probing with Hello doubles as
        # re-announcement, the master's Hello handling triggers a full
        # config resync on reattach.
        self._send(Hello(header=Header(xid=self._next_xid()),
                         capabilities=list(self.capabilities),
                         n_cells=len(self.api.cell_ids)), now)

    def tick_tx(self, now: int) -> None:
        """AGENT_TX phase: hello, sync, due reports, queued events."""
        ob = _obs.live
        if ob is None:
            self._tick_tx(now)
        else:
            ob.timed("agent.tick_us", "agent", "tick_tx", self._tick_tx,
                     now, agent=self.agent_id)

    def _tick_tx(self, now: int) -> None:
        if self.connection is not None and not self.connection.before_tx(now):
            # Disconnected: the supervisor owns the channel (probes on
            # its backoff schedule); suppress normal control traffic and
            # bound the event queue until the master is reachable again.
            if len(self._event_queue) > EVENT_QUEUE_LIMIT:
                self._event_queue = self._event_queue[-EVENT_QUEUE_LIMIT:]
            return
        if self.endpoint is not None and self._hello_due(now):
            self._send_hello(now)
            self._hello_sent = True
            self._last_hello_tti = now
        if self.sync_enabled:
            self._send(SubframeTrigger(
                header=Header(xid=self._next_xid()),
                sfn=now // SUBFRAMES_PER_FRAME,
                sf=now % SUBFRAMES_PER_FRAME), now)
        for reply in self.reports.due_replies(now):
            self._send(reply, now)
        events, self._event_queue = self._event_queue, []
        for event in events:
            self._send(event, now)

    # -- inbound ----------------------------------------------------------

    def tick_rx(self, now: int) -> None:
        """AGENT_RX phase: dispatch every received protocol message."""
        if self.endpoint is None:
            return
        ob = _obs.live
        if ob is None:
            self._tick_rx(now)
        else:
            ob.timed("agent.tick_us", "agent", "tick_rx", self._tick_rx,
                     now, agent=self.agent_id)

    def _tick_rx(self, now: int) -> None:
        for message in self.endpoint.receive(now=now):
            if self.connection is not None:
                self.connection.heard(now)
            self.dispatch(message, now)

    # -- connection resilience --------------------------------------------

    def _enter_local_control(self, now: int) -> None:
        """Swap remote-stub VSFs for their local fallbacks.

        Called by the connection supervisor on disconnect: any
        operation currently driven by the master (a VSF listed in its
        module's ``REMOTE_VSF_NAMES``) reverts to the designated
        fallback so the cell keeps scheduling instead of idling on
        decisions that will never arrive.
        """
        for module in self.modules.values():
            for operation in module.OPERATIONS:
                active = module.active_name(operation)
                if active is None or active not in module.REMOTE_VSF_NAMES:
                    continue
                fallback = module.fallback_name(operation)
                if fallback is None or fallback == active:
                    continue
                self._suspended_remote.append((module, operation, active))
                module.activate(operation, fallback)
                logger.warning(
                    "agent %d: %s.%s falls back %s -> %s (master lost)",
                    self.agent_id, module.name, operation, active, fallback)

    def _on_reconnected(self, now: int) -> None:
        """Restore suspended remote VSFs and re-announce to the master."""
        suspended, self._suspended_remote = self._suspended_remote, []
        for module, operation, name in suspended:
            if name in module.cached_names(operation):
                module.activate(operation, name)
                logger.info("agent %d: %s.%s restored to %s (reconnected)",
                            self.agent_id, module.name, operation, name)
        # Re-announce so the master resynchronizes configuration even if
        # the reconnect was triggered by inbound traffic rather than one
        # of our Hello probes.  Reports restart from a full snapshot:
        # any delta replies lost during the outage must not leave the
        # master's RIB permanently behind.
        self._hello_sent = False
        self.reports.force_full()

    def dispatch(self, message: FlexRanMessage, now: int) -> None:
        """Route one protocol message to its handler (message handler
        and dispatcher entity of Fig. 2).

        The dispatch boundary is hardened: an unknown message type or
        a handler that raises (e.g. a command naming a module this
        agent does not run) is counted and dropped instead of killing
        the agent's RX tick -- the control channel stays up.
        """
        ob = _obs.live
        handler = self._handlers.get(type(message))
        if handler is None:
            self.dispatch_unknown += 1
            if ob is not None:
                ob.registry.counter("agent.dispatch.unknown").inc()
            logger.warning("agent %d: dropping unhandled message type %s",
                           self.agent_id, type(message).__name__)
            return
        try:
            if ob is not None:
                msg_type = type(message).__name__
                with ob.tracer.span("agent_dispatch", msg_type, tti=now,
                                    agent=self.agent_id):
                    handler(message, now)
                if self.endpoint is not None:
                    ob.correlator.on_handle(
                        self.endpoint.peer, self.endpoint.rx_direction,
                        msg_type, message.header.xid, now)
            else:
                handler(message, now)
        except Exception as exc:  # noqa: BLE001 - the dispatch boundary
            self.dispatch_errors += 1
            if ob is not None:
                ob.registry.counter("agent.dispatch.errors").inc()
            logger.error("agent %d: handler for %s failed, message "
                         "dropped: %r", self.agent_id,
                         type(message).__name__, exc)
            return
        self.messages_handled += 1

    # -- handlers ---------------------------------------------------------

    def _handle_echo(self, message: EchoRequest, now: int) -> None:
        self._send(EchoReply(header=Header(xid=message.header.xid)), now)

    def _handle_echo_reply(self, message: EchoReply, now: int) -> None:
        # Keepalive answer: liveness already noted in tick_rx.
        pass

    def _handle_config_request(self, message: ConfigRequest, now: int) -> None:
        # Only the requested list is built: "cells" or "ues" alone, and
        # both for "enb" or any other scope.
        scope = message.scope
        api = self.api
        self._send(ConfigReply(
            header=Header(xid=message.header.xid),
            enb_id=api.enb_id,
            cells=api.get_cell_configs() if scope != "ues" else [],
            ues=api.get_ue_configs() if scope != "cells" else []), now)

    def _handle_sync_config(self, message: SyncConfig, now: int) -> None:
        self.sync_enabled = message.enabled

    def _module(self, name: str) -> ControlModule:
        module = self.modules.get(name)
        if module is None:
            raise KeyError(
                f"agent {self.agent_id} has no control module {name!r}")
        return module

    def _handle_vsf_update(self, message: VsfUpdate, now: int) -> None:
        module = self._module(message.module)
        logger.info("agent %d: VSF update %s.%s <- %s (%d bytes)",
                    self.agent_id, message.module, message.operation,
                    message.name, len(message.blob))
        vsf = load_vsf(message.blob, self.vsf_registry)
        bind = getattr(vsf, "bind", None)
        if callable(bind):
            # Some VSFs (e.g. ABS-time stubs) need the owning module's
            # remote-decision store; binding is the loader's link step.
            bind(module)
        module.register_vsf(message.operation, message.name, vsf)

    def _handle_policy(self, message: PolicyReconfiguration, now: int) -> None:
        logger.info("agent %d: policy reconfiguration received",
                    self.agent_id)
        document = PolicyDocument.from_text(message.text)
        for module_name, policies in document.modules.items():
            module = self._module(module_name)
            for policy in policies:
                module.apply_policy(policy)

    # -- events -----------------------------------------------------------

    def _on_vsf_fault(self, operation: str, vsf_name: str,
                      reason: str) -> None:
        self._queue_event(EventType.VSF_FAULT, 0, 0, {
            "operation": operation, "vsf": vsf_name, "reason": reason[:120]})

    def _queue_event(self, kind: EventType, rnti: int, cell_id: int,
                     details: Dict[str, str]) -> None:
        self._event_queue.append(EventNotification(
            header=Header(xid=self._next_xid()), event_type=int(kind),
            rnti=rnti, cell_id=cell_id, details=details))
