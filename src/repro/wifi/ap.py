"""A minimal Wi-Fi access-point data plane.

Section 7.2 of the paper argues that FlexRAN's mechanisms "are not
LTE-specific": for another technology, "the number and type of the
control modules and VSFs on the agent side would change to reflect the
capabilities and needs of the new technology (e.g. no PDCP module for
WiFi)".  This module provides the substrate to demonstrate that claim:
an 802.11-flavoured AP whose *decisions* (which station transmits in a
service slot, at what rate policy) are injected through a hook exactly
like the eNodeB's scheduler VSFs — see :mod:`repro.wifi.agent`.

The MAC is an airtime abstraction: time advances in 1 ms service slots
(reusing the platform clock); in each slot the AP serves one station
chosen by the scheduling hook, after a contention overhead that grows
with the number of backlogged stations (CSMA/CA's efficiency loss).
Per-station PHY rates come from an 802.11n-like SNR → MCS table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.lte.mac.queues import TransmissionQueue
from repro.lte.ue import RateMeter

# 802.11n 20 MHz single-stream PHY rates (Mb/s) and the SNR (dB) above
# which each MCS is usable.
WIFI_MCS_TABLE = [
    (5.0, 6.5), (8.0, 13.0), (11.0, 19.5), (14.0, 26.0),
    (18.0, 39.0), (22.0, 52.0), (25.0, 58.5), (28.0, 65.0),
]

MAC_EFFICIENCY = 0.65
"""Fraction of the PHY rate delivered as goodput (preambles, ACKs,
interframe spaces)."""

CONTENTION_LOSS_PER_STATION = 0.03
"""Additional airtime lost to collisions/backoff per extra contender."""


def phy_rate_mbps(snr_db: float) -> float:
    """Highest usable 802.11n rate at *snr_db* (0 if out of range)."""
    rate = 0.0
    for threshold, mcs_rate in WIFI_MCS_TABLE:
        if snr_db >= threshold:
            rate = mcs_rate
    return rate


@dataclass
class Station:
    """One associated Wi-Fi station."""

    mac: str
    snr_db: float
    aid: int = 0  # association id, assigned by the AP
    queue: TransmissionQueue = field(
        default_factory=lambda: TransmissionQueue(limit_bytes=500_000))
    meter: RateMeter = field(default_factory=lambda: RateMeter(1000))

    @property
    def rate_mbps(self) -> float:
        return phy_rate_mbps(self.snr_db)


@dataclass
class SlotDecision:
    """The scheduling hook's verdict for one service slot."""

    aid: int


SchedulerHook = Callable[["WifiAp", int], Optional[SlotDecision]]


def fair_airtime_hook(ap: "WifiAp", slot: int) -> Optional[SlotDecision]:
    """Default policy: round-robin over backlogged stations (airtime
    fairness -- each backlogged station gets equal slot counts)."""
    backlogged = [s for s in ap.stations_by_aid() if s.queue]
    if not backlogged:
        return None
    return SlotDecision(backlogged[slot % len(backlogged)].aid)


class WifiAp:
    """Access point: association, queues, per-slot service."""

    def __init__(self, ap_id: int, *, seed: int = 0) -> None:
        self.ap_id = ap_id
        self._stations: Dict[int, Station] = {}
        self._next_aid = 1
        self.scheduler_hook: SchedulerHook = fair_airtime_hook
        self._rng = np.random.default_rng(seed)
        self.slots_served = 0
        self.slots_idle = 0
        self.delivered_bytes = 0

    # -- association --------------------------------------------------------

    def associate(self, station: Station) -> int:
        station.aid = self._next_aid
        self._next_aid += 1
        self._stations[station.aid] = station
        return station.aid

    def stations_by_aid(self) -> List[Station]:
        return [self._stations[a] for a in sorted(self._stations)]

    # -- traffic -------------------------------------------------------------

    def enqueue(self, aid: int, nbytes: int, slot: int) -> bool:
        return self._stations[aid].queue.push(nbytes, slot)

    # -- per-slot engine -------------------------------------------------------

    def tick(self, slot: int) -> None:
        """Serve one 1 ms slot according to the scheduling hook."""
        decision = self.scheduler_hook(self, slot)
        if decision is None or decision.aid not in self._stations:
            self.slots_idle += 1
            return
        station = self._stations[decision.aid]
        contenders = sum(1 for s in self._stations.values() if s.queue)
        efficiency = MAC_EFFICIENCY * max(
            0.2, 1.0 - CONTENTION_LOSS_PER_STATION * max(0, contenders - 1))
        budget = int(station.rate_mbps * 1000 / 8 * efficiency)
        if budget <= 0:
            self.slots_idle += 1
            return
        got = station.queue.pop_bytes(budget, slot)
        if got <= 0:
            self.slots_idle += 1
            return
        station.meter.add(got, slot)
        self.delivered_bytes += got
        self.slots_served += 1
