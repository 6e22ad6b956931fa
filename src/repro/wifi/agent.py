"""The Wi-Fi binding of the FlexRAN agent.

The Section 7.2 demonstration: the platform's control machinery —
control modules with CMIs and swappable VSFs, the reports manager, the
protocol messages, policy reconfiguration — drives a *different radio
technology* without modification.  What changes is exactly what the
paper predicts:

* the set of control modules ("no PDCP module for WiFi") — the Wi-Fi
  agent has a single airtime-MAC module;
* the technology-specific API calls — station scheduling instead of
  PRB allocation;
* nothing else: the agent loop itself, VSF caching/swapping,
  statistics reporting and the wire protocol are :mod:`repro.core`'s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.agent.agent import FlexRanAgent
from repro.core.agent.cmi import ControlModule
from repro.core.protocol.messages import (
    CellConfigRep,
    CellStatsReport,
    UeConfigRep,
    UeStatsReport,
)
from repro.wifi.ap import (
    WIFI_MCS_TABLE,
    SlotDecision,
    WifiAp,
    fair_airtime_hook,
)


class WifiApApi:
    """Southbound API for the AP: the Wi-Fi 'device driver' of §7.2.

    Implements the contract the agent core binds to (see
    :class:`FlexRanAgent`) with Wi-Fi semantics on the same wire
    records: the AP is its one cell, aid rides as rnti, the MCS index
    as CQI.
    """

    def __init__(self, ap: WifiAp) -> None:
        self._ap = ap
        #: Moves whenever a station's reportable state does.
        self.change_seq = 0
        # aid -> (change sequence, record) as of the last pass.
        self._rows: Dict[int, Tuple[int, UeStatsReport]] = {}

    @property
    def enb_id(self) -> int:  # the protocol calls every NodeB an eNB
        return self._ap.ap_id

    @property
    def cell_ids(self) -> List[int]:
        return [self._ap.ap_id]

    def set_scheduler(self, hook) -> None:
        self._ap.scheduler_hook = hook

    def collect_ue_stats(
            self, slot: int,
            since_seq: int) -> List[Tuple[int, UeStatsReport]]:
        """One pass over the stations in aid order: a station whose
        record differs from the last one built moves the change
        sequence; returns ``(seq, record)`` above *since_seq*."""
        rows: Dict[int, Tuple[int, UeStatsReport]] = {}
        out = []
        for station in self._ap.stations_by_aid():
            # MCS index rides the CQI field: the highest usable entry
            # of the AP's rate table (0 when even MCS0 is unusable).
            mcs_index = max(0, sum(
                1 for thr, _ in WIFI_MCS_TABLE
                if station.snr_db >= thr) - 1)
            record = UeStatsReport(
                rnti=station.aid,
                queues={0: station.queue.size_bytes},
                wb_cqi=mcs_index, wb_cqi_clear=mcs_index,
                subband_sinr_db_x10=[int(station.snr_db * 10)],
                rx_bytes_total=station.meter.total_bytes,
                rrc_state=3,  # associated ~= connected
            )
            row = self._rows.get(station.aid)
            if row is None or row[1] != record:
                self.change_seq += 1
                row = (self.change_seq, record)
            rows[station.aid] = row
            if row[0] > since_seq:
                out.append(row)
        self._rows = rows
        return out

    def get_cell_stats(self, slot: int) -> List[CellStatsReport]:
        return [CellStatsReport(
            cell_id=self._ap.ap_id, n_prb=0,
            connected_ues=len(self._ap.stations_by_aid()),
            tb_ok=self._ap.slots_served,
            dl_bytes=self._ap.delivered_bytes)]

    def get_cell_configs(self) -> List[CellConfigRep]:
        return [CellConfigRep(cell_id=self._ap.ap_id, n_prb_dl=0,
                              n_prb_ul=0, band=0)]

    def get_ue_configs(self) -> List[UeConfigRep]:
        return [UeConfigRep(rnti=s.aid, imsi=s.mac,
                            cell_id=self._ap.ap_id)
                for s in self._ap.stations_by_aid()]

    def subscribe_events(self, fn) -> None:
        """The AP model raises no asynchronous events yet."""


class MaxRateHook:
    """Alternative VSF: always serve the fastest backlogged station."""

    name = "max_rate"

    def __call__(self, ap: WifiAp, slot: int) -> Optional[SlotDecision]:
        backlogged = [s for s in ap.stations_by_aid() if s.queue]
        if not backlogged:
            return None
        best = max(backlogged, key=lambda s: (s.rate_mbps, -s.aid))
        return SlotDecision(best.aid)


class WifiMacModule(ControlModule):
    """The (only) control module of a Wi-Fi agent: airtime scheduling."""

    name = "wifi_mac"
    OPERATIONS = ("station_scheduling",)

    def __init__(self, api: WifiApApi) -> None:
        super().__init__()
        self._api = api
        self.register_vsf("station_scheduling", "fair_airtime",
                          fair_airtime_hook)
        self.register_vsf("station_scheduling", "max_rate", MaxRateHook())
        self.activate("station_scheduling", "fair_airtime")
        api.set_scheduler(self._trampoline)

    def _trampoline(self, ap: WifiAp, slot: int) -> Optional[SlotDecision]:
        return self.invoke("station_scheduling", ap, slot)


class WifiAgent(FlexRanAgent):
    """The agent core bound to one access point: its API and its one
    control module.  Everything else -- channel, liveness and fallback,
    dispatch, reports, policy and VSF handling -- is the shared loop."""

    def _attach(self, ap: WifiAp) -> None:
        self.ap = ap
        self.api = WifiApApi(ap)
        self.mac = WifiMacModule(self.api)
        self.modules = {self.mac.name: self.mac}
