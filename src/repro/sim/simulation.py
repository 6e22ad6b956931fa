"""Top-level simulation harness: one object wiring the whole platform.

A :class:`Simulation` assembles eNodeBs, FlexRAN agents, the master
controller, control-channel links, the EPC stub, TCP flows and DASH
clients onto the phased :class:`~repro.net.clock.SimClock`, in the
causal per-TTI order described in that module.  Examples, tests and
every benchmark build on this harness.

Typical use::

    sim = Simulation(with_master=True)
    enb = sim.add_enb()
    agent = sim.add_agent(enb, rtt_ms=20)
    ue = sim.add_ue(enb, Ue("001", FixedCqi(15)))
    sim.add_downlink_traffic(enb, ue, CbrSource(20.0))
    sim.master.add_app(RemoteSchedulerApp(schedule_ahead=24))
    sim.run(10_000)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.agent import FlexRanAgent
from repro.core.controller import MasterController
from repro.core.delegation import VsfFactoryRegistry
from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.amc import DEFAULT_ERROR_MODEL, ErrorModel
from repro.lte.mac.queues import DEFAULT_LCID
from repro.lte.ue import Ue
from repro.net.clock import Phase, SimClock
from repro.net.tcp import TcpConnectionFabric, TcpControlConnection
from repro.net.transport import ControlConnection
from repro.traffic.dash import DashClient
from repro.traffic.epc import EpcStub, FlowStats
from repro.traffic.generators import TrafficSource
from repro.traffic.tcp import TcpFlow


class Simulation:
    """A complete FlexRAN deployment in one process."""

    def __init__(self, *, with_master: bool = False,
                 realtime_master: bool = True,
                 master: Optional[MasterController] = None,
                 transport: str = "emulated") -> None:
        if transport not in ("emulated", "tcp"):
            raise ValueError(
                f"transport must be 'emulated' or 'tcp', got {transport!r}")
        self.clock = SimClock()
        self.epc = EpcStub()
        self.transport = transport
        self.master: Optional[MasterController] = master
        if with_master and self.master is None:
            self.master = MasterController(realtime=realtime_master)

        self.enbs: Dict[int, EnodeB] = {}
        self.agents: Dict[int, FlexRanAgent] = {}
        self.connections: Dict[int, ControlConnection] = {}
        self.tcp_flows: List[TcpFlow] = []
        self.dash_clients: List[DashClient] = []
        self._next_enb_id = 1
        self._cell_owner: Dict[int, int] = {}
        self._tcp_fabric: Optional[TcpConnectionFabric] = None

        self.clock.register(Phase.TRAFFIC, self._traffic_phase)
        self.clock.register(Phase.AGENT_TX, self._agent_tx_phase)
        if self.transport == "tcp":
            # Real-TCP lockstep: the LINK phases ship each TTI's due
            # frames through the kernel and pump both ends until the
            # receiver has parsed them, preserving the emulated
            # transport's causal order.
            self.clock.register(Phase.LINK_UP, self._link_up_phase)
            self.clock.register(Phase.LINK_DOWN, self._link_down_phase)
        if self.master is not None:
            self.clock.register(Phase.MASTER, self._master_phase)
        self.clock.register(Phase.AGENT_RX, self._agent_rx_phase)
        self.clock.register(Phase.RAN, self._ran_phase)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Tear down any real-transport resources (idempotent)."""
        if self._tcp_fabric is not None:
            self._tcp_fabric.close()
            self._tcp_fabric = None

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- topology -----------------------------------------------------------

    def add_enb(self, enb_id: Optional[int] = None,
                cell_configs: Optional[Sequence[CellConfig]] = None, *,
                seed: int = 0,
                error_model: ErrorModel = DEFAULT_ERROR_MODEL,
                rlc_buffer_bytes: Optional[int] = None) -> EnodeB:
        """Create and register an eNodeB."""
        if enb_id is None:
            enb_id = self._next_enb_id
        if enb_id in self.enbs:
            raise ValueError(f"eNodeB {enb_id} already exists")
        self._next_enb_id = max(self._next_enb_id, enb_id + 1)
        enb = EnodeB(enb_id, cell_configs, seed=seed,
                     error_model=error_model,
                     rlc_buffer_bytes=rlc_buffer_bytes)
        self.enbs[enb_id] = enb
        for cell_id in enb.cells:
            self._cell_owner[cell_id] = enb_id
        return enb

    def add_agent(self, enb: EnodeB, *, agent_id: Optional[int] = None,
                  rtt_ms: float = 0.0, sync_enabled: bool = False,
                  vsf_registry: Optional[VsfFactoryRegistry] = None,
                  connection_config=None, endpoint=None
                  ) -> FlexRanAgent:
        """Attach a FlexRAN agent to *enb*, connected to the master
        (if any) over a control channel with *rtt_ms* on the
        simulation's transport.  Passing *endpoint* attaches the agent
        to an externally established connection instead (how cluster
        workers hand their agents a streaming TCP endpoint to a master
        in another process)."""
        if agent_id is None:
            agent_id = enb.enb_id
        if agent_id in self.agents:
            raise ValueError(f"agent {agent_id} already exists")
        if endpoint is None and self.master is not None:
            if self.transport == "tcp":
                conn = TcpControlConnection(
                    self._fabric(), agent_id, rtt_ms=rtt_ms,
                    name=f"agent{agent_id}", seed=agent_id)
            else:
                conn = ControlConnection(rtt_ms=rtt_ms,
                                         name=f"agent{agent_id}",
                                         seed=agent_id)
            self.connections[agent_id] = conn
            self.master.connect_agent(agent_id, conn.master_side)
            endpoint = conn.agent_side
        agent = FlexRanAgent(agent_id, enb, endpoint=endpoint,
                             sync_enabled=sync_enabled,
                             vsf_registry=vsf_registry,
                             connection_config=connection_config)
        agent.api.set_handover_executor(self._execute_handover)
        self.agents[agent_id] = agent
        return agent

    def _fabric(self) -> TcpConnectionFabric:
        """The lazily started in-process TCP wiring (loopback server)."""
        if self._tcp_fabric is None:
            self._tcp_fabric = TcpConnectionFabric()
        return self._tcp_fabric

    def add_ue(self, enb: EnodeB, ue: Ue,
               cell_id: Optional[int] = None) -> int:
        """Attach a UE; returns its RNTI."""
        return enb.attach_ue(ue, cell_id, tti=self.clock.now)

    # -- traffic --------------------------------------------------------------

    def add_downlink_traffic(self, enb: EnodeB, ue: Ue,
                             source: TrafficSource,
                             *, lcid: int = DEFAULT_LCID) -> FlowStats:
        if ue.rnti is None:
            raise ValueError(f"UE {ue.imsi} is not attached")
        return self.epc.add_downlink(source, enb, ue.rnti, lcid=lcid)

    def add_uplink_traffic(self, enb: EnodeB, ue: Ue,
                           source: TrafficSource) -> FlowStats:
        if ue.rnti is None:
            raise ValueError(f"UE {ue.imsi} is not attached")
        return self.epc.add_uplink(source, enb, ue.rnti)

    def add_tcp_flow(self, enb: EnodeB, ue: Ue, *,
                     unlimited: bool = False,
                     base_rtt_ms: float = 20.0) -> TcpFlow:
        """Create a TCP flow toward *ue*, driven every TRAFFIC phase."""
        if ue.rnti is None:
            raise ValueError(f"UE {ue.imsi} is not attached")
        flow = TcpFlow(unlimited=unlimited, base_rtt_ms=base_rtt_ms)
        flow.wire(enb, ue.rnti, ue)
        self.tcp_flows.append(flow)
        return flow

    def add_dash_client(self, client: DashClient) -> DashClient:
        """Register a DASH client (its flow must already be added)."""
        self.dash_clients.append(client)
        return client

    # -- handover plumbing ------------------------------------------------------

    def _execute_handover(self, rnti: int, source_cell: int,
                          target_cell: int, tti: int) -> bool:
        """Move a UE between cells, re-homing its flows and channel."""
        src_enb = self.enbs.get(self._cell_owner.get(source_cell, -1))
        dst_enb = self.enbs.get(self._cell_owner.get(target_cell, -1))
        if src_enb is None or dst_enb is None:
            return False
        if rnti not in src_enb.rntis():
            return False
        ue = src_enb.detach_ue(rnti)
        # After the move, the target cell's channel applies: swap in the
        # neighbor channel if the deployment attached one.
        neighbor_channels = ue.neighbor_channels
        if target_cell in neighbor_channels:
            old_channel = ue.channel
            ue.channel = neighbor_channels.pop(target_cell)
            neighbor_channels[source_cell] = old_channel
        new_rnti = dst_enb.attach_ue(ue, target_cell, tti=tti)
        self.epc.rehome(src_enb, rnti, dst_enb, new_rnti)
        dst_enb.rrc.complete_handover(new_rnti, tti)
        return True

    # -- phases -----------------------------------------------------------------

    def _traffic_phase(self, tti: int) -> None:
        self.epc.tick(tti)
        for flow in self.tcp_flows:
            flow.tick(tti)
        for client in self.dash_clients:
            client.tick(tti)

    def _agent_tx_phase(self, tti: int) -> None:
        for agent_id in sorted(self.agents):
            self.agents[agent_id].tick_tx(tti)

    def _link_up_phase(self, tti: int) -> None:
        for agent_id in sorted(self.connections):
            self.connections[agent_id].flush_uplink(tti)

    def _master_phase(self, tti: int) -> None:
        assert self.master is not None
        self.master.tick(tti)

    def _link_down_phase(self, tti: int) -> None:
        for agent_id in sorted(self.connections):
            self.connections[agent_id].flush_downlink(tti)

    def _agent_rx_phase(self, tti: int) -> None:
        for agent_id in sorted(self.agents):
            self.agents[agent_id].tick_rx(tti)

    def _ran_phase(self, tti: int) -> None:
        # Two-pass so cross-cell interference resolves on what every
        # cell actually planned this TTI.
        for enb_id in sorted(self.enbs):
            self.enbs[enb_id].plan(tti)
        for enb_id in sorted(self.enbs):
            self.enbs[enb_id].transmit(tti)

    # -- controller restart ------------------------------------------------------

    def restart_master(self, *, restore: bool = True) -> MasterController:
        """Simulate a controller crash followed by a cold restart.

        The old master's process state (RIB, registry, supervisor) is
        discarded; a fresh, identically-configured controller takes
        over the same control connections, optionally seeded from the
        old master's latest checkpoint.  The same application
        *instances* are re-registered -- their ``on_start`` hooks
        re-subscribe statistics and re-push VSFs, the natural
        application-level resync -- and :meth:`MasterController.resync`
        re-requests authoritative configuration from every agent.
        """
        if self.master is None:
            raise ValueError("simulation has no master to restart")
        old = self.master
        replacement = old.respawn(now=self.clock.now, restore=restore)
        for agent_id in sorted(self.connections):
            replacement.connect_agent(
                agent_id, self.connections[agent_id].master_side)
        for reg in old.registry.registrations():
            replacement.add_app(reg.app)
        replacement.resync()
        self.master = replacement
        return replacement

    # -- running ------------------------------------------------------------------

    def run(self, ttis: int) -> None:
        """Advance the deployment by *ttis* TTIs (1 ms each)."""
        self.clock.run(ttis)

    def run_ms(self, milliseconds: float) -> None:
        self.clock.run_ms(milliseconds)

    @property
    def now(self) -> int:
        return self.clock.now
