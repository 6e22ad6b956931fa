"""The four ttibudget workloads: who builds what, and why.

Each builder takes the benchmark seed and a :class:`Size` and returns a
:class:`Deployment`.  The seed feeds every random stream a deployment
owns (``add_enb(seed=)`` for HARQ outcomes, channel and traffic
generators), so one seed is one reproducible input set.  Every master
runs with the real-time app budget off: a wall-clock reading must never
decide simulated behaviour, or the output checks and the exact call
counts stop repeating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.agent import FlexRanAgent
from repro.core.protocol.messages import ReportType
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import ChannelModel, FixedCqi, GaussMarkovSinr
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.net.clock import Phase
from repro.sim import scenarios
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource, PoissonSource, TrafficSource

SEED_STRIDE = 1000
"""Builders derive per-eNodeB seeds as ``seed + e``; spacing benchmark
seeds this far apart keeps two seeds from sharing shifted streams."""

STATS_PERIOD_TTIS = 5
LOAD_FACTOR = 0.8
RTT_MS = 2.0


@dataclass(frozen=True)
class Size:
    n_enbs: int
    ues_per_enb: int
    warmup_ttis: int


@dataclass
class Deployment:
    sim: Simulation
    enbs: List[EnodeB]
    agents: List[FlexRanAgent]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Size], Deployment]
    size: Size
    smoke_size: Size


def _steady_channel(cqi: int, stream_seed: int) -> ChannelModel:
    return FixedCqi(cqi)


def _fading_channel(cqi: int, stream_seed: int) -> ChannelModel:
    return GaussMarkovSinr(scenarios.sinr_for_cqi(cqi), sigma_db=3.0,
                           seed=stream_seed)


def _cbr_source(rate: float, index: int, stream_seed: int) -> TrafficSource:
    # large_scale's low-discrepancy phase spread.
    return CbrSource(rate, start_tti=20,
                     phase=(0.618033988749895 * (index + 1)) % 1.0)


def _poisson_source(rate: float, index: int,
                    stream_seed: int) -> TrafficSource:
    return PoissonSource(rate, seed=stream_seed, start_tti=20)


def _populate(sim: Simulation, size: Size, seed: int, *, with_agents: bool,
              channel: Callable[[int, int], ChannelModel],
              source: Callable[[float, int, int], TrafficSource]
              ) -> Deployment:
    """``scenarios.large_scale``'s RAN (same IMSIs, CQI cycle and
    offered load) with the channel, the traffic source and the presence
    of a control plane left to the caller."""
    enbs: List[EnodeB] = []
    agents: List[FlexRanAgent] = []
    rate = (LOAD_FACTOR * capacity_mbps(scenarios.SCALE_CQI_CYCLE[1], 50)
            / max(1, size.ues_per_enb))
    for e in range(size.n_enbs):
        enb = sim.add_enb(seed=seed + e)
        if with_agents:
            agents.append(sim.add_agent(enb, rtt_ms=RTT_MS))
        for i in range(size.ues_per_enb):
            index = e * size.ues_per_enb + i
            cqi = scenarios.SCALE_CQI_CYCLE[i % len(scenarios.SCALE_CQI_CYCLE)]
            ue = Ue(f"{e:02d}{i:04d}", channel(cqi, seed + index))
            sim.add_ue(enb, ue)
            sim.add_downlink_traffic(enb, ue,
                                     source(rate, index, seed + index))
        enbs.append(enb)
    return Deployment(sim=sim, enbs=enbs, agents=agents)


def _subscribe_staggered(sim: Simulation,
                         agents: List[FlexRanAgent]) -> None:
    """The subscription pattern of ``large_scale``: one periodic full
    stats subscription per agent, spread over one reporting period."""
    def subscribe(tti: int) -> None:
        offset = tti - 2
        if 0 <= offset < STATS_PERIOD_TTIS:
            for agent in agents[offset::STATS_PERIOD_TTIS]:
                sim.master.northbound.request_stats(
                    agent.agent_id, report_type=ReportType.PERIODIC,
                    period_ttis=STATS_PERIOD_TTIS)
    sim.clock.register(Phase.POST, subscribe)


def build_scale_steady(seed: int, size: Size) -> Deployment:
    sc = scenarios.large_scale(
        n_enbs=size.n_enbs, ues_per_enb=size.ues_per_enb,
        stats_period_ttis=STATS_PERIOD_TTIS, load_factor=LOAD_FACTOR,
        rtt_ms=RTT_MS, seed=seed)
    sc.sim.master.task_manager.realtime = False
    return Deployment(sim=sc.sim, enbs=sc.enbs, agents=sc.agents)


def build_scale_churn(seed: int, size: Size) -> Deployment:
    sim = Simulation(with_master=True, realtime_master=False)
    dep = _populate(sim, size, seed, with_agents=True,
                    channel=_fading_channel, source=_poisson_source)
    for agent in dep.agents:
        agent.mac.activate("dl_scheduling", "local_pf")
    _subscribe_staggered(sim, dep.agents)
    return dep


def build_central_tti(seed: int, size: Size) -> Deployment:
    sc = scenarios.centralized_scheduling(
        n_enbs=size.n_enbs, ues_per_enb=size.ues_per_enb, cqi=12,
        rtt_ms=0.0, schedule_ahead=0, load_factor=1.2, seed=seed)
    sc.sim.master.task_manager.realtime = False
    return Deployment(sim=sc.sim, enbs=sc.enbs, agents=sc.agents)


def build_ran_only(seed: int, size: Size) -> Deployment:
    sim = Simulation(with_master=False)
    return _populate(sim, size, seed, with_agents=False,
                     channel=_steady_channel, source=_cbr_source)


WORKLOADS: Dict[str, Workload] = {
    "scale_steady": Workload(build_scale_steady,
                             Size(32, 100, 150), Size(4, 16, 100)),
    "scale_churn": Workload(build_scale_churn,
                            Size(8, 100, 150), Size(2, 16, 100)),
    "central_tti": Workload(build_central_tti,
                            Size(4, 16, 200), Size(2, 4, 100)),
    "ran_only": Workload(build_ran_only,
                         Size(32, 100, 150), Size(4, 16, 100)),
}
"""Builders and sizes (full, smoke) for the names in ``spec.WORKLOADS``."""
