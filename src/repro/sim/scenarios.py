"""Canonical experiment scenarios shared by examples and benchmarks.

Each builder assembles a :class:`~repro.sim.simulation.Simulation` for
one of the paper's evaluation setups and returns the handles the
harness needs.  Calibration constants (CQI operating points, offered
loads) live here so every bench and example reads the same scenario.
:data:`CATALOGUE` names one deployment of every builder; it is what
``repro trace|stats|serve --scenario`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.apps.carrier_aggregation import CarrierAggregationApp
from repro.core.apps.eicic import (
    AbsOnlyScheduler,
    EicicMacroScheduler,
    OptimizedEicicApp,
    register_eicic_factories,
)
from repro.core.apps.energy import DrxEnergyApp
from repro.core.apps.mec_dash import AssistedClientBinding, MecDashApp
from repro.core.apps.mobility import MobilityManagerApp
from repro.core.apps.monitoring import MonitoringApp
from repro.core.apps.ran_sharing import RanSharingApp, ShareChange
from repro.core.apps.remote_scheduler import RemoteSchedulerApp
from repro.core.agent import FlexRanAgent
from repro.core.controller import MasterController
from repro.core.delegation import VsfFactoryRegistry
from repro.core.protocol.messages import DciSpec, ReportType, StatsFlags
from repro.lte.cell import CellConfig
from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.enodeb import EnodeB
from repro.lte.mac.schedulers import Scheduler
from repro.lte.phy.channel import (
    ChannelModel,
    FixedCqi,
    InterferenceChannel,
    SquareWaveCqi,
    TraceCqi,
)
from repro.lte.phy.cqi import cqi_to_sinr_floor
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim.simulation import Simulation
from repro.traffic.dash import (
    AssistedAbr,
    DashClient,
    DashVideo,
    ThroughputAbr,
    WindowedThroughputAbr,
)
from repro.traffic.generators import CbrSource, OnOffSource, SaturatingSource
from repro.wifi.agent import WifiAgent
from repro.wifi.ap import Station, WifiAp


def sinr_for_cqi(cqi: int) -> float:
    """SINR just above the floor at which *cqi* is reported."""
    return cqi_to_sinr_floor(cqi) + 0.1


# ---------------------------------------------------------------------------
# Saturated single/multi-UE cell (Fig. 6b, Section 5.4 substrate)
# ---------------------------------------------------------------------------


@dataclass
class CellScenario:
    """A one-eNodeB deployment with its handles."""

    sim: Simulation
    enb: EnodeB
    agent: Optional[FlexRanAgent]
    ues: List[Ue] = field(default_factory=list)


def saturated_cell(*, n_ues: int = 1, cqi: int = 15,
                   with_agent: bool = True, with_master: bool = False,
                   rtt_ms: float = 0.0, uplink: bool = False,
                   seed: int = 0) -> CellScenario:
    """Speedtest setup: saturating traffic to fixed-CQI UEs."""
    sim = Simulation(with_master=with_master)
    enb = sim.add_enb(seed=seed)
    agent = sim.add_agent(enb, rtt_ms=rtt_ms) if with_agent else None
    ues: List[Ue] = []
    for i in range(n_ues):
        ue = Ue(f"00{i:03d}", FixedCqi(cqi))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
        if uplink:
            sim.add_uplink_traffic(enb, ue, SaturatingSource(start_tti=20))
        ues.append(ue)
    return CellScenario(sim=sim, enb=enb, agent=agent, ues=ues)


@dataclass
class QuickstartScenario:
    """The first deployment a new user runs, and its handles."""

    sim: Simulation
    enb: EnodeB
    agent: FlexRanAgent
    ue: Ue
    monitor: MonitoringApp


def quickstart(*, seed: int = 0) -> QuickstartScenario:
    """One eNodeB with its agent 2 ms RTT from the master, one CQI-15 UE
    with saturating downlink traffic, and a monitoring app sampling the
    RIB every 100 TTIs over 10-TTI statistics reports."""
    sim = Simulation(with_master=True)
    enb = sim.add_enb(seed=seed)
    agent = sim.add_agent(enb, rtt_ms=2.0)
    ue = Ue("208930000000001", FixedCqi(15))
    sim.add_ue(enb, ue)
    sim.add_downlink_traffic(enb, ue, SaturatingSource(start_tti=20))
    monitor = MonitoringApp(period_ttis=100)
    sim.master.add_app(monitor)
    return QuickstartScenario(sim=sim, enb=enb, agent=agent, ue=ue,
                              monitor=monitor)


# ---------------------------------------------------------------------------
# Centralized mobility management (Section 7.1)
# ---------------------------------------------------------------------------


@dataclass
class MobilityScenario:
    sim: Simulation
    enbs: List[EnodeB]
    agents: List[FlexRanAgent]
    ue: Ue
    app: MobilityManagerApp


def mobility_handover(*, seed: int = 0) -> MobilityScenario:
    """A UE served by cell 10 at CQI 4 that measures cell 20 at CQI 13,
    with a 4 Mb/s CBR downlink from TTI 50, and the master's A3-style
    mobility manager (2-CQI hysteresis, 1 s time to trigger)."""
    sim = Simulation(with_master=True)
    enbs = [sim.add_enb(1, seed=seed), sim.add_enb(2, seed=seed)]
    agents = [sim.add_agent(enb) for enb in enbs]
    ue = Ue("208930000000007", FixedCqi(4))
    ue.neighbor_channels = {enbs[1].cell().cell_id: FixedCqi(13)}
    sim.add_ue(enbs[0], ue)
    sim.add_downlink_traffic(enbs[0], ue, CbrSource(4.0, start_tti=50))
    app = MobilityManagerApp(period_ttis=10, hysteresis_cqi=2,
                             time_to_trigger_ttis=1000, load_aware=True)
    sim.master.add_app(app)
    return MobilityScenario(sim=sim, enbs=enbs, agents=agents, ue=ue,
                            app=app)


# ---------------------------------------------------------------------------
# Centralized scheduling (Figs. 7, 8, 9; Section 5.4)
# ---------------------------------------------------------------------------


@dataclass
class CentralizedScenario:
    sim: Simulation
    enbs: List[EnodeB]
    agents: List[FlexRanAgent]
    ues_per_enb: List[List[Ue]]
    app: RemoteSchedulerApp


def populate_centralized_cells(sim: Simulation, app: RemoteSchedulerApp, *,
                               n_enbs: int, ues_per_enb: int, cqi: int,
                               load_factor: float, seed: int,
                               channel_factory=None,
                               **agent_options) -> CentralizedScenario:
    """Add the cells of a centrally scheduled deployment to *sim*.

    Every agent (built with *agent_options*) is on the remote stub from
    the very first TTI -- the app also sends the activating policy
    message; this avoids a window where the default local scheduler
    would mask the control-channel study.  A cell's UEs (fixed *cqi*,
    or ``channel_factory(enb_index, ue_index)``) share a CBR downlink
    load of *load_factor* times its capacity from TTI 50 on.
    """
    scenario = CentralizedScenario(sim=sim, enbs=[], agents=[],
                                   ues_per_enb=[], app=app)
    per_ue_mbps = load_factor * capacity_mbps(cqi, 50) / max(1, ues_per_enb)
    for e in range(n_enbs):
        enb = sim.add_enb(seed=seed + e)
        agent = sim.add_agent(enb, **agent_options)
        agent.mac.activate("dl_scheduling", "remote_stub")
        ues: List[Ue] = []
        for i in range(ues_per_enb):
            channel: ChannelModel
            if channel_factory is not None:
                channel = channel_factory(e, i)
            else:
                channel = FixedCqi(cqi)
            ue = Ue(f"{e:02d}{i:04d}", channel)
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue, CbrSource(per_ue_mbps,
                                                        start_tti=50))
            ues.append(ue)
        scenario.enbs.append(enb)
        scenario.agents.append(agent)
        scenario.ues_per_enb.append(ues)
    return scenario


def centralized_scheduling(*, n_enbs: int = 1, ues_per_enb: int = 10,
                           cqi: int = 12, rtt_ms: float = 0.0,
                           schedule_ahead: int = 0,
                           load_factor: float = 1.2,
                           algorithm: Optional[Scheduler] = None,
                           channel_factory=None,
                           transport: str = "emulated",
                           seed: int = 0) -> CentralizedScenario:
    """The paper's worst-case signaling setup: per-TTI stats reports,
    full TTI-level sync, and a centralized scheduler pushing decisions
    every TTI (Section 5.2.1)."""
    sim = Simulation(with_master=True, transport=transport)
    app = RemoteSchedulerApp(algorithm, schedule_ahead=schedule_ahead)
    sim.master.add_app(app)
    return populate_centralized_cells(
        sim, app, n_enbs=n_enbs, ues_per_enb=ues_per_enb, cqi=cqi,
        load_factor=load_factor, seed=seed,
        channel_factory=channel_factory, rtt_ms=rtt_ms)


# ---------------------------------------------------------------------------
# Large-scale hot-path scenario (ttibudget's scale_steady substrate)
# ---------------------------------------------------------------------------


@dataclass
class ScaleScenario:
    """A many-agent, many-UE deployment for hot-path benchmarking."""

    sim: Simulation
    enbs: List[EnodeB]
    agents: List[FlexRanAgent]
    ues: List[Ue]


SCALE_CQI_CYCLE = (15, 12, 9, 7)
"""CQI operating points cycled across the UEs of a scale cell, so the
scheduler and TBS paths see a realistic mix instead of one cache row."""


def populate_scale_cell(sim: Simulation, enb: EnodeB, *, label: int,
                        ordinal: int, ues_per_enb: int,
                        load_factor: float) -> List[Ue]:
    """Attach one scale eNodeB's UEs and their CBR downlink flows.

    *label* prefixes the IMSIs; *ordinal* is the eNodeB's zero-based
    position in the whole deployment (not in a shard of it), which
    places its flows in the deployment-wide phase spread.
    """
    per_ue_mbps = (load_factor * capacity_mbps(SCALE_CQI_CYCLE[1], 50)
                   / max(1, ues_per_enb))
    ues: List[Ue] = []
    for i in range(ues_per_enb):
        cqi = SCALE_CQI_CYCLE[i % len(SCALE_CQI_CYCLE)]
        ue = Ue(f"{label:02d}{i:04d}", FixedCqi(cqi))
        sim.add_ue(enb, ue)
        # Low-discrepancy phase spread: equal-rate CBR flows would
        # otherwise emit in lockstep, turning the fleet's offered
        # load into one synchronized packet burst per interval.
        phase = (0.618033988749895
                 * (ordinal * ues_per_enb + i + 1)) % 1.0
        sim.add_downlink_traffic(enb, ue, CbrSource(per_ue_mbps,
                                                    start_tti=20,
                                                    phase=phase))
        ues.append(ue)
    return ues


def large_scale(*, n_enbs: int = 32, ues_per_enb: int = 100,
                stats_period_ttis: int = 5, load_factor: float = 0.8,
                rtt_ms: float = 2.0, transport: str = "emulated",
                seed: int = 0) -> ScaleScenario:
    """The scalability stress deployment (Fig. 8 pushed to its limit).

    Every eNodeB runs its local scheduler over *ues_per_enb* UEs with
    mixed CQIs and CBR downlink load, while its agent streams periodic
    full statistics reports to the master -- so one TTI exercises every
    hot path at once: context building, scheduling, TBS sizing, report
    encoding/decoding and RIB application.  This is the deployment
    behind ``ttibudget``'s ``scale_steady`` workload, the headline
    per-TTI cost number (docs/BENCHMARKS.md).
    """
    sim = Simulation(with_master=True, transport=transport)
    enbs: List[EnodeB] = []
    agents: List[FlexRanAgent] = []
    ues: List[Ue] = []
    for e in range(n_enbs):
        enb = sim.add_enb(seed=seed + e)
        agents.append(sim.add_agent(enb, rtt_ms=rtt_ms))
        ues.extend(populate_scale_cell(
            sim, enb, label=e, ordinal=e, ues_per_enb=ues_per_enb,
            load_factor=load_factor))
        enbs.append(enb)

    def subscribe(tti: int) -> None:
        # Stagger subscriptions across one reporting period so the
        # fleet's report TTIs interleave instead of phase-locking: with
        # every agent subscribed on the same TTI, all encode/decode
        # work lands on one TTI in `stats_period_ttis` and the per-TTI
        # wall-time distribution turns bimodal.
        offset = tti - 2
        if 0 <= offset < stats_period_ttis:
            for agent in agents[offset::stats_period_ttis]:
                sim.master.northbound.request_stats(
                    agent.agent_id, report_type=ReportType.PERIODIC,
                    period_ttis=stats_period_ttis)
    sim.clock.register(Phase.POST, subscribe)
    return ScaleScenario(sim=sim, enbs=enbs, agents=agents, ues=ues)


# ---------------------------------------------------------------------------
# Control-plane resilience (partitions, loss, jitter)
# ---------------------------------------------------------------------------


@dataclass
class FaultSpec:
    """Faults to inject on one agent's control connection.

    ``partitions`` is a sequence of ``(start_tti, end_tti)`` windows
    during which the channel is down in both directions; ``loss`` and
    ``jitter_ms`` apply for the whole run.
    """

    loss: float = 0.0
    jitter_ms: float = 0.0
    partitions: Sequence[Tuple[int, int]] = ()

    def apply(self, connection) -> None:
        """Install the faults on a :class:`ControlConnection`."""
        if self.loss:
            connection.channel.set_loss(self.loss)
        if self.jitter_ms:
            connection.channel.set_jitter_ms(self.jitter_ms)
        for start, end in self.partitions:
            connection.channel.partition(start, end)


def partitioned_centralized(*, n_enbs: int = 1, ues_per_enb: int = 10,
                            cqi: int = 12, rtt_ms: float = 4.0,
                            schedule_ahead: int = 8,
                            load_factor: float = 1.2,
                            fault: Optional[FaultSpec] = None,
                            transport: str = "emulated",
                            seed: int = 0) -> CentralizedScenario:
    """Centralized scheduling under control-channel faults.

    The Section 5 worst case (per-TTI central scheduling) plus the
    resilience machinery: agents run a connection supervisor that
    falls back to local scheduling when the master becomes
    unreachable, and *fault* is injected on the first agent's control
    connection.  With ``fault=None`` this is the fault-free baseline
    of the same deployment (supervisor armed, nothing injected).
    """
    sim = Simulation(with_master=True, transport=transport)
    app = RemoteSchedulerApp(schedule_ahead=schedule_ahead)
    sim.master.add_app(app)
    scenario = populate_centralized_cells(
        sim, app, n_enbs=n_enbs, ues_per_enb=ues_per_enb, cqi=cqi,
        load_factor=load_factor, seed=seed, rtt_ms=rtt_ms)
    if fault is not None:
        fault.apply(sim.connections[scenario.agents[0].agent_id])
    return scenario


# ---------------------------------------------------------------------------
# Survivability chaos run (app crash + VSF poison + controller restart)
# ---------------------------------------------------------------------------


@dataclass
class ChaosScenario:
    """A centralized deployment with a chaos harness attached."""

    sim: Simulation
    enbs: List[EnodeB]
    agents: List[FlexRanAgent]
    app: RemoteSchedulerApp
    probe: "ProbeApp"
    harness: "ChaosHarness"
    actions: List["ChaosAction"]


def chaos_survivability(*, n_enbs: int = 1, ues_per_enb: int = 5,
                        cqi: int = 12, rtt_ms: float = 0.0,
                        schedule_ahead: int = 8,
                        crash_window: Tuple[int, int] = (500, 900),
                        poison_at: Optional[int] = 1500,
                        restart_at: Optional[int] = 2500,
                        checkpoint_period_ttis: int = 250,
                        clearance_ttis: int = 1000,
                        fault: Optional[FaultSpec] = None,
                        seed: int = 0) -> ChaosScenario:
    """The survivability acceptance scenario (composable faults).

    Centralized per-TTI scheduling plus: a crash-looping
    high-priority probe app (quarantined, then re-admitted after
    cooldown), a poisoned VSF pushed mid-run (agent sandbox rolls
    back to the last-known-good scheduler), and a controller crash +
    checkpoint-restore restart.  Optional *fault* adds PR-1 link
    faults on the first agent's connection.  The attached harness
    asserts the survivability invariants every TTI.
    """
    from repro.sim.chaos import (
        AppCrashWindow,
        ControllerRestartAt,
        ProbeApp,
        VsfPoisonAt,
        register_chaos_factories,
        simulation_chaos,
    )

    master = MasterController(checkpoint_period_ttis=checkpoint_period_ttis)
    sim = Simulation(master=master)
    app = RemoteSchedulerApp(schedule_ahead=schedule_ahead)
    master.add_app(app)
    probe = ProbeApp()
    master.add_app(probe)

    registry = VsfFactoryRegistry()
    register_chaos_factories(registry)
    cells = populate_centralized_cells(
        sim, app, n_enbs=n_enbs, ues_per_enb=ues_per_enb, cqi=cqi,
        load_factor=1.2, seed=seed, rtt_ms=rtt_ms, vsf_registry=registry)
    agents = cells.agents

    actions: List = []
    if crash_window is not None:
        actions.append(AppCrashWindow(probe.name, *crash_window))
    if poison_at is not None:
        actions.append(VsfPoisonAt(poison_at, agents[0].agent_id))
    if restart_at is not None:
        actions.append(ControllerRestartAt(restart_at))
    if fault is not None:
        fault.apply(sim.connections[agents[0].agent_id])
    harness = simulation_chaos(sim, actions, clearance_ttis=clearance_ttis)
    return ChaosScenario(sim=sim, enbs=cells.enbs, agents=agents, app=app,
                         probe=probe, harness=harness, actions=actions)


# ---------------------------------------------------------------------------
# HetNet eICIC (Fig. 10)
# ---------------------------------------------------------------------------

EICIC_MODES = ("uncoordinated", "eicic", "optimized")

# Operating points calibrated per DESIGN.md Section 5: every UE is an
# interference victim; the aggressor knocks macro UEs from CQI 12 down
# to 7 and the (range-expanded) small-cell UE down to 2.
MACRO_CLEAR_CQI = 12
MACRO_INTERFERED_CQI = 7
SMALL_CLEAR_CQI = 12
SMALL_INTERFERED_CQI = 2
MACRO_UE_LOAD_MBPS = 4.5
SMALL_UE_LOAD_MBPS = 1.8


@dataclass
class EicicScenario:
    sim: Simulation
    macro_enb: EnodeB
    small_enb: EnodeB
    macro_ues: List[Ue]
    small_ue: Ue
    app: Optional[OptimizedEicicApp]
    mode: str


def hetnet_eicic(mode: str, *, abs_subframes: Sequence[int] = (1, 3, 5, 7),
                 n_macro_ues: int = 3,
                 macro_load_mbps: float = MACRO_UE_LOAD_MBPS,
                 small_load_mbps: float = SMALL_UE_LOAD_MBPS,
                 seed: int = 0) -> EicicScenario:
    """Section 6.1's two-cell HetNet in one of the three modes."""
    if mode not in EICIC_MODES:
        raise ValueError(f"mode must be one of {EICIC_MODES}, got {mode!r}")
    abs_set = sorted(set(abs_subframes))
    complement = [s for s in range(SUBFRAMES_PER_FRAME) if s not in abs_set]

    sim = Simulation(with_master=True)
    macro_enb = sim.add_enb(1, seed=seed)
    small_enb = sim.add_enb(2, seed=seed + 1)
    macro_registry = VsfFactoryRegistry()
    small_registry = VsfFactoryRegistry()
    register_eicic_factories(macro_registry)
    register_eicic_factories(small_registry)
    macro_agent = sim.add_agent(macro_enb, vsf_registry=macro_registry)
    small_agent = sim.add_agent(small_enb, vsf_registry=small_registry)

    macro_cell = macro_enb.cell()
    small_cell = small_enb.cell()
    macro_cell.set_interference_source(small_cell)
    small_cell.set_interference_source(macro_cell)

    macro_ues: List[Ue] = []
    for i in range(n_macro_ues):
        ue = Ue(f"m{i:03d}", InterferenceChannel(
            sinr_for_cqi(MACRO_CLEAR_CQI), sinr_for_cqi(MACRO_INTERFERED_CQI)))
        sim.add_ue(macro_enb, ue)
        sim.add_downlink_traffic(macro_enb, ue,
                                 CbrSource(macro_load_mbps, start_tti=100))
        macro_ues.append(ue)
    small_ue = Ue("s000", InterferenceChannel(
        sinr_for_cqi(SMALL_CLEAR_CQI), sinr_for_cqi(SMALL_INTERFERED_CQI)))
    sim.add_ue(small_enb, small_ue)
    sim.add_downlink_traffic(small_enb, small_ue,
                             CbrSource(small_load_mbps, start_tti=100))

    app: Optional[OptimizedEicicApp] = None
    if mode == "uncoordinated":
        macro_agent.mac.activate("dl_scheduling", "local_fair")
        small_agent.mac.activate("dl_scheduling", "local_fair")
    elif mode == "eicic":
        # Static eICIC, configured without central coordination (what an
        # X2-based deployment would do).
        macro_vsf = EicicMacroScheduler(abs_set)
        macro_vsf.bind(macro_agent.mac)
        macro_agent.mac.register_vsf("dl_scheduling", "eicic_macro",
                                     macro_vsf, activate=True)
        macro_cell.set_abs_pattern(abs_set)
        small_agent.mac.register_vsf("dl_scheduling", "abs_only_fair",
                                     AbsOnlyScheduler(abs_set), activate=True)
        small_cell.set_abs_pattern(complement)
    else:  # optimized: everything pushed over the FlexRAN protocol
        app = OptimizedEicicApp(
            macro_agent=macro_agent.agent_id,
            macro_cell=macro_cell.cell_id,
            small_agents=[small_agent.agent_id],
            abs_subframes=abs_set)
        sim.master.add_app(app)
        # Small cells still need their local ABS-only discipline.
        small_agent.mac.register_vsf("dl_scheduling", "abs_only_fair",
                                     AbsOnlyScheduler(abs_set), activate=True)

    return EicicScenario(sim=sim, macro_enb=macro_enb, small_enb=small_enb,
                         macro_ues=macro_ues, small_ue=small_ue, app=app,
                         mode=mode)


# ---------------------------------------------------------------------------
# RAN sharing (Fig. 12)
# ---------------------------------------------------------------------------

SHARING_CQI = 7
"""Operating point for the sharing experiments; capacity ~6.6 Mb/s, the
regime of the paper's PHY-abstracted emulation runs."""

PHASE_TTIS = 10_000
"""One phase of Fig. 12a: the MNO/MVNO split changes every phase."""


@dataclass
class SharingScenario:
    sim: Simulation
    enb: EnodeB
    agent: FlexRanAgent
    ues_by_operator: Dict[str, List[Ue]]
    app: RanSharingApp


def ran_sharing(*, ues_per_operator: int = 5,
                initial_fractions: Optional[Dict[str, float]] = None,
                changes: Sequence[ShareChange] = (),
                per_ue_load_mbps: float = 2.0,
                group_split: Optional[Tuple[int, int]] = None,
                seed: int = 0) -> SharingScenario:
    """Section 6.3: MNO + MVNO sharing one cell via a sliced scheduler.

    With ``group_split=(premium, secondary)`` the MVNO slice runs the
    premium/secondary group policy of the second experiment.
    """
    fractions = dict(initial_fractions or {"mno": 0.5, "mvno": 0.5})
    sim = Simulation(with_master=True)
    enb = sim.add_enb(seed=seed)
    agent = sim.add_agent(enb)

    ues_by_operator: Dict[str, List[Ue]] = {}
    for operator in sorted(fractions):
        ues: List[Ue] = []
        for i in range(ues_per_operator):
            labels = {"operator": operator}
            if operator == "mvno" and group_split is not None:
                premium, _ = group_split
                labels["group"] = "premium" if i < premium else "secondary"
            elif group_split is not None:
                labels["group"] = "premium"
            ue = Ue(f"{operator}{i:03d}", FixedCqi(SHARING_CQI),
                    labels=labels)
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(
                enb, ue, CbrSource(per_ue_load_mbps, start_tti=100))
            ues.append(ue)
        ues_by_operator[operator] = ues

    policies = {"mvno": "group_based"} if group_split is not None else None
    app = RanSharingApp(agent_id=agent.agent_id,
                        initial_fractions=fractions, changes=changes,
                        policies=policies)
    sim.master.add_app(app)
    return SharingScenario(sim=sim, enb=enb, agent=agent,
                           ues_by_operator=ues_by_operator, app=app)


# ---------------------------------------------------------------------------
# DASH over MEC (Fig. 11, Table 2)
# ---------------------------------------------------------------------------

LOW_VARIABILITY = "low"
HIGH_VARIABILITY = "high"

LOW_BITRATES = [1.2, 2.0, 4.0]
HIGH_BITRATES = [2.9, 4.9, 7.3, 9.6, 14.6, 19.6]

# CQI operating points for the two Fig. 11 cases.  The paper used
# (3 <-> 2) and (10 <-> 4); our capacity model is more conservative at
# low CQI than the authors' testbed (see DESIGN.md), so the same
# *relationships* -- small step around the 2 Mb/s rung, drastic step
# from far above to just at the lowest rung -- occur one/two CQI
# levels higher.
LOW_CASE_CQIS = (4, 3)
HIGH_CASE_CQIS = (10, 6)

CQI_PERIOD_TTIS = 25_000
"""Period of the Fig. 11 channel's square wave between its two CQIs."""

SUSTAINABLE_FRACTION = 0.8
"""Fraction of the saturated link capacity a VBR stream can sustain
without freezes (TCP efficiency x VBR peak headroom); regenerated
empirically by bench_table2_cqi."""


def default_bitrate_table() -> Dict[int, float]:
    """CQI -> max sustainable bitrate from the capacity model."""
    return {c: round(capacity_mbps(c, 50) * SUSTAINABLE_FRACTION, 2)
            for c in range(1, 16)}


@dataclass
class DashScenario:
    sim: Simulation
    enb: EnodeB
    ue: Ue
    client: DashClient
    video: DashVideo
    assisted: bool
    case: str


def dash_streaming(case: str = LOW_VARIABILITY, *, assisted: bool = False,
                   seed: int = 0) -> DashScenario:
    """Section 6.2: one UE streaming DASH under CQI fluctuation."""
    if case == LOW_VARIABILITY:
        high_cqi, low_cqi = LOW_CASE_CQIS
        bitrates = LOW_BITRATES
        buffer_cap_s = 12.0
    elif case == HIGH_VARIABILITY:
        high_cqi, low_cqi = HIGH_CASE_CQIS
        bitrates = HIGH_BITRATES
        buffer_cap_s = 100.0
    else:
        raise ValueError(f"case must be 'low' or 'high', got {case!r}")

    sim = Simulation(with_master=True)
    enb = sim.add_enb(seed=seed)
    sim.add_agent(enb)
    channel = SquareWaveCqi(high_cqi, low_cqi, period_ttis=CQI_PERIOD_TTIS)
    ue = Ue("dash0", channel)
    sim.add_ue(enb, ue)
    flow = sim.add_tcp_flow(enb, ue, base_rtt_ms=20.0)
    video = DashVideo(bitrates, segment_duration_s=2.0,
                      vbr_peak_factor=1.3, seed=seed)

    if assisted:
        abr = AssistedAbr()
        app = MecDashApp(
            [AssistedClientBinding(agent_id=enb.enb_id, rnti=ue.rnti,
                                   abr=abr)],
            default_bitrate_table())
        sim.master.add_app(app)
    elif case == LOW_VARIABILITY:
        abr = WindowedThroughputAbr(flow)
    else:
        abr = ThroughputAbr()

    client = DashClient(video, flow, abr, buffer_cap_s=buffer_cap_s,
                        startup_buffer_s=2.0, start_tti=2000)
    sim.add_dash_client(client)
    return DashScenario(sim=sim, enb=enb, ue=ue, client=client, video=video,
                        assisted=assisted, case=case)


# ---------------------------------------------------------------------------
# Beyond LTE: a Wi-Fi AP under the same agent and master (Section 7.2)
# ---------------------------------------------------------------------------

WIFI_SLOT_LOAD_BYTES = 6000
"""Bytes offered to every station every slot: more than the fast
station's 65 Mb/s MCS drains, so both stay backlogged."""


@dataclass
class WifiScenario:
    sim: Simulation
    ap: WifiAp
    agent: WifiAgent
    stations: List[Station]


def wifi_sdran(*, transport: str = "emulated",
               seed: int = 0) -> WifiScenario:
    """An access point with a fast (65 Mb/s MCS) and a slow (6.5 Mb/s)
    station, both saturated, under a master subscribed to periodic
    statistics every 100 slots."""
    sim = Simulation(with_master=True, transport=transport)
    ap = WifiAp(1, seed=seed)
    stations = [Station(mac="02:00:00:00:00:01", snr_db=60.0),
                Station(mac="02:00:00:00:00:02", snr_db=15.0)]
    for station in stations:
        ap.associate(station)
    agent = sim.add_ap(ap)
    sim.master.northbound.request_stats(
        agent.agent_id, report_type=ReportType.PERIODIC, period_ttis=100)

    def offer(slot: int) -> None:
        for station in stations:
            ap.enqueue(station.aid, WIFI_SLOT_LOAD_BYTES, slot)
    sim.clock.register(Phase.TRAFFIC, offer)
    return WifiScenario(sim=sim, ap=ap, agent=agent, stations=stations)


# ---------------------------------------------------------------------------
# The Table 1 controls beyond scheduling, in one run
# ---------------------------------------------------------------------------

TOUR_GBR_LCID = 4
"""The GBR bearer's logical channel (the default bearer is LCID 3)."""

TOUR_UL_COMMAND_TTI = 1000
"""When the tour's master pushes its one centralized uplink grant."""


@dataclass
class FeatureTourScenario:
    """One eNodeB under every Table 1 control the master can apply."""

    sim: Simulation
    enb: EnodeB
    agent: FlexRanAgent
    idle_ue: Ue
    ca_ue: Ue
    ul_ue: Ue
    gbr_ue: Ue
    energy: DrxEnergyApp
    ca: CarrierAggregationApp


def feature_tour(*, seed: int = 0) -> FeatureTourScenario:
    """Carriers 10 and 11 on one eNodeB, four UEs on carrier 10, and
    the master exercising DRX, carrier aggregation, uplink grants,
    bearer QoS and the PRB cap over a control channel with 2 ms RTT
    and 1 ms jitter:

    * the DRX energy saver puts UEs that go quiet to sleep; the idle UE
      sleeps until its on/off flow starts at TTI 1200, and DRX is lifted
      and set again as the flow comes and goes;
    * the CA manager activates carrier 11 for a UE whose 30 Mb/s CBR
      flow (TTIs 100--1500) backlogs carrier 10, and releases it once
      the flow stops; at TTI 2000 that UE leaves carrier 11's coverage;
    * one UE sends 2 Mb/s uplink, granted by the agent's own uplink
      split, except for one TTI the master grants centrally
      (:data:`TOUR_UL_COMMAND_TTI`);
    * a triggered CQI subscription reports only when a CQI moves;
    * at TTI 20 the master provisions a 2 Mb/s GBR bearer (QCI 1,
      LCID 4), pushes the ``scheduler:qos_aware`` VSF and selects and
      tunes it by policy, so the bearer is served in the scheduler's GBR
      phase beside a bulk TCP download to the same UE (whose tail drops
      at the RLC buffer are TCP's loss signal); its CQI steps from 12
      to 9 at TTI 2000;
    * at TTI 2500 the master caps carrier 10 at 25 downlink PRBs.
    """
    sim = Simulation(with_master=True)
    enb = sim.add_enb(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)],
                      seed=seed)
    agent = sim.add_agent(enb, rtt_ms=2.0)
    sim.connections[agent.agent_id].channel.set_jitter_ms(1.0)
    idle_ue, ca_ue, ul_ue = (Ue(f"tour{i}", FixedCqi(12)) for i in range(3))
    gbr_ue = Ue("tour3", TraceCqi([(0, 12), (2000, 9)]))
    for ue in (idle_ue, ca_ue, ul_ue, gbr_ue):
        sim.add_ue(enb, ue, cell_id=10)
    ca_ue.carrier_channels[11] = FixedCqi(12)  # a swap the cell hears of
    sim.add_downlink_traffic(enb, idle_ue, OnOffSource(
        2.0, on_ttis=300, off_ttis=500, start_tti=1200))
    sim.add_downlink_traffic(enb, ca_ue,
                             CbrSource(30.0, start_tti=100, stop_tti=1500))
    sim.add_uplink_traffic(enb, ul_ue, CbrSource(2.0, start_tti=100))
    sim.add_downlink_traffic(enb, gbr_ue, CbrSource(2.0, start_tti=100),
                             lcid=TOUR_GBR_LCID)
    sim.add_tcp_flow(enb, gbr_ue, unlimited=True)
    energy = DrxEnergyApp()
    ca = CarrierAggregationApp(scell_map={10: 11})
    sim.master.add_app(energy)
    sim.master.add_app(ca)

    nb, agent_id = sim.master.northbound, agent.agent_id

    def qos(tti: int) -> None:
        # A triggered CQI subscription: a reply only when a UE's CQI
        # moves (the GBR UE's, at TTI 2000).
        nb.request_stats(agent_id, report_type=ReportType.TRIGGERED,
                         flags=int(StatsFlags.CQI))
        nb.set_bearer_qos(agent_id, 10, gbr_ue.rnti, TOUR_GBR_LCID, qci=1,
                          gbr_mbps=2.0)
        nb.push_vsf(agent_id, "mac", "dl_scheduling", "qos",
                    "scheduler:qos_aware")
        nb.reconfigure_vsf(agent_id, "mac", "dl_scheduling", behavior="qos",
                           parameters={"burst_ms": 40})

    def central_ul(tti: int) -> None:
        # Hand the uplink to the master for ten TTIs: it grants once, in
        # two commands for the same TTI that the conflict resolver
        # merges into one decision.
        nb.reconfigure_vsf(agent_id, "mac", "ul_scheduling",
                           behavior="remote_stub_ul")
        for ue, n_prb in ((ul_ue, 10), (gbr_ue, 2)):
            nb.send_ul_command(agent_id, 10, tti + 5, [
                DciSpec(rnti=ue.rnti, n_prb=n_prb, cqi_used=12)])

    def local_ul(tti: int) -> None:
        nb.reconfigure_vsf(agent_id, "mac", "ul_scheduling",
                           behavior="local_fair_ul")

    def leave_carrier_11(tti: int) -> None:
        # Out of carrier 11's coverage: it reads the primary channel.
        del ca_ue.carrier_channels[11]

    def cap(tti: int) -> None:
        nb.set_prb_cap(agent_id, 10, 25)

    script = {20: qos, TOUR_UL_COMMAND_TTI: central_ul,
              TOUR_UL_COMMAND_TTI + 10: local_ul, 2000: leave_carrier_11,
              2500: cap}

    def run_script(tti: int) -> None:
        if tti in script:
            script[tti](tti)
    sim.clock.register(Phase.POST, run_script)
    return FeatureTourScenario(sim=sim, enb=enb, agent=agent,
                               idle_ue=idle_ue, ca_ue=ca_ue, ul_ue=ul_ue,
                               gbr_ue=gbr_ue, energy=energy, ca=ca)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def _hetnet(mode: str):
    return lambda seed=0: hetnet_eicic(mode, seed=seed)


def _dash(case: str, assisted: bool):
    return lambda seed=0: dash_streaming(case, assisted=assisted, seed=seed)


def _ran_sharing_dynamic(seed: int = 0) -> SharingScenario:
    """Fig. 12a: 5+5 UEs at 70/30, then 40/60 at :data:`PHASE_TTIS` and
    80/20 at twice that."""
    return ran_sharing(
        initial_fractions={"mno": 0.7, "mvno": 0.3},
        changes=[ShareChange(at_tti=PHASE_TTIS,
                             fractions={"mno": 0.4, "mvno": 0.6}),
                 ShareChange(at_tti=2 * PHASE_TTIS,
                             fractions={"mno": 0.8, "mvno": 0.2})],
        seed=seed)


def _ran_sharing_groups(seed: int = 0) -> SharingScenario:
    """Fig. 12b: 15+15 UEs at 50/50 and 1 Mb/s each; the MVNO's slice
    splits its UEs 9 premium / 6 secondary."""
    return ran_sharing(ues_per_operator=15, group_split=(9, 6),
                       per_ue_load_mbps=1.0, seed=seed)


def _impaired_partitioned(seed: int = 0) -> CentralizedScenario:
    """:func:`partitioned_centralized` over an impaired channel: 1 %
    loss, a partition over TTIs 600--1200, and the RTT raised from 4 to
    8 ms at TTI 1500."""
    sc = partitioned_centralized(fault=FaultSpec(
        loss=0.01, partitions=[(600, 1200)]), seed=seed)
    connection = sc.sim.connections[sc.agents[0].agent_id]

    def raise_rtt(tti: int) -> None:
        if tti == 1500:
            connection.channel.set_rtt_ms(8.0)
    sc.sim.clock.register(Phase.POST, raise_rtt)
    return sc


CATALOGUE: Dict[str, Tuple[Callable[..., object], int]] = {
    # name -> (build(seed=0) returning a handle with .sim, default TTIs).
    # Every deployment has a master; every public builder is reached.
    "quickstart": (quickstart, 2000),
    "saturated_cell": (
        lambda seed=0: saturated_cell(with_master=True, seed=seed), 2000),
    "centralized": (
        lambda seed=0: centralized_scheduling(
            ues_per_enb=2, rtt_ms=20.0, schedule_ahead=24,
            load_factor=1.2, seed=seed), 2000),
    "large_scale": (large_scale, 200),
    "partitioned_centralized": (_impaired_partitioned, 2000),
    "chaos_survivability": (chaos_survivability, 4000),
    **{f"hetnet_{mode}": (_hetnet(mode), 2000) for mode in EICIC_MODES},
    "ran_sharing": (ran_sharing, 2000),
    "ran_sharing_dynamic": (_ran_sharing_dynamic, PHASE_TTIS + 500),
    "ran_sharing_groups": (_ran_sharing_groups, 2000),
    # Fig. 11: the two cases, default and assisted players.
    "dash_streaming": (_dash(HIGH_VARIABILITY, True), 10_000),
    "dash_high_default": (_dash(HIGH_VARIABILITY, False), 10_000),
    "dash_low_default": (_dash(LOW_VARIABILITY, False), 10_000),
    "dash_low_assisted": (_dash(LOW_VARIABILITY, True), 10_000),
    "mobility_handover": (mobility_handover, 3000),
    "wifi_sdran": (wifi_sdran, 2000),
    "feature_tour": (feature_tour, 3000),
    "centralized_tcp": (
        lambda seed=0: centralized_scheduling(
            ues_per_enb=2, rtt_ms=20.0, schedule_ahead=24,
            load_factor=1.2, transport="tcp", seed=seed), 2000),
}
