"""Cell: one LTE carrier of an eNodeB.

Holds the radio configuration FlexRAN exposes through configuration
calls (bandwidth, PRB count, band, antenna ports -- Table 1), the set
of served UEs, the eNodeB's *knowledge* of each UE's CQI (refreshed on
the SRS/CQI reporting period, hence possibly stale), the ABS muting
pattern used by eICIC, and the interference wiring between cells.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lte.constants import (
    DEFAULT_BAND,
    DEFAULT_DL_BANDWIDTH_MHZ,
    DEFAULT_TRANSMISSION_MODE,
    DEFAULT_UL_BANDWIDTH_MHZ,
    SRS_PERIOD_TTIS,
    SUBFRAMES_PER_FRAME,
    prbs_for_bandwidth,
)
from repro.lte.ue import Ue


@dataclass
class CellConfig:
    """Static radio configuration (the Configuration API payload)."""

    cell_id: int
    dl_bandwidth_mhz: float = DEFAULT_DL_BANDWIDTH_MHZ
    ul_bandwidth_mhz: float = DEFAULT_UL_BANDWIDTH_MHZ
    band: int = DEFAULT_BAND
    antenna_ports: int = 1
    transmission_mode: int = DEFAULT_TRANSMISSION_MODE

    @property
    def n_prb_dl(self) -> int:
        return prbs_for_bandwidth(self.dl_bandwidth_mhz)

    @property
    def n_prb_ul(self) -> int:
        return prbs_for_bandwidth(self.ul_bandwidth_mhz)


class Cell:
    """Runtime state of one carrier.

    *on_change* is called with the RNTI whenever a CQI refresh changes
    the eNodeB's knowledge of that UE.
    """

    def __init__(self, config: CellConfig,
                 on_change: Callable[[int], None]) -> None:
        self.config = config
        self._on_change = on_change
        self.ues: Dict[int, Ue] = {}
        # eNodeB's knowledge of UE channel quality: refreshed only every
        # SRS period, under the cell's *assumed* interference state.
        self.known_cqi: Dict[int, int] = {}
        self.known_cqi_clear: Dict[int, int] = {}
        self.cqi_updated_tti: Dict[int, int] = {}
        # eICIC: subframes (0-9) where this cell must stay silent.
        self.muted_subframes: Set[int] = set()
        # Spectrum sharing (LSA): a runtime cap on usable DL PRBs; None
        # means the full carrier is licensed for use right now.
        self.prb_cap: Optional[int] = None
        # The dominant interfering cell, if any (eICIC topologies);
        # assigned through the interference_source property.
        self._interference_source: Optional["Cell"] = None
        # Whether this cell transmitted user data in the last RAN phase;
        # consulted by victims of this cell when resolving interference.
        self.transmitting: bool = False
        self.last_tx_tti: int = -1
        # SRS schedule: a due-heap of (due_tti, rnti); refresh_cqi pops
        # only the entries due this TTI.  A forced refresh observes the
        # whole cell at once, so UEs attached together share a phase (a
        # deployment built at one TTI reports on one TTI in
        # SRS_PERIOD_TTIS).  Entries are invalidated lazily: a popped
        # entry for a detached or parked RNTI is dropped, and one
        # refreshed more recently than its due time implies (forced
        # refresh, RNTI reuse) is re-queued at the true due time.
        self._srs_heap: List[Tuple[int, int]] = []
        # Parked RNTIs have no live heap entry: they were observed on a
        # channel object that declares time_invariant, with no
        # interferer, so their next report cannot differ.  For them
        # cqi_updated_tti is the last observation, however old; a
        # replaced channel object or a new interferer re-arms them.
        self._srs_parked: Set[int] = set()
        # Last TTI the periodic pass served (_rearm's "now").
        self._srs_served_tti = -1
        # TTI of the last forced pass, while cqi_updated_tti == that TTI
        # still vouches for an observation (reads repeat within a TTI);
        # a replaced channel object or interferer change voids it.
        self._fresh_tti: Optional[int] = None

    @property
    def cell_id(self) -> int:
        return self.config.cell_id

    @property
    def n_prb(self) -> int:
        """Usable DL PRBs right now (carrier width minus any LSA cap)."""
        if self.prb_cap is None:
            return self.config.n_prb_dl
        return max(0, min(self.config.n_prb_dl, self.prb_cap))

    @property
    def interference_source(self) -> Optional["Cell"]:
        return self._interference_source

    @interference_source.setter
    def interference_source(self, source: Optional["Cell"]) -> None:
        self._interference_source = source
        # Under an interferer every report has two states to tell
        # apart, so nobody stays parked.
        self._fresh_tti = None
        for rnti in self._srs_parked:
            self._rearm(rnti)
        self._srs_parked.clear()

    def set_prb_cap(self, cap: Optional[int]) -> None:
        """Restrict (or restore) the usable downlink PRBs at runtime."""
        if cap is not None and cap < 0:
            raise ValueError(f"PRB cap must be >= 0, got {cap}")
        self.prb_cap = cap

    def add_ue(self, rnti: int, ue: Ue, *, primary: bool = True) -> None:
        if rnti in self.ues:
            raise ValueError(f"RNTI {rnti} already served by cell {self.cell_id}")
        self.ues[rnti] = ue
        # The newcomer has no CQI knowledge yet: queue it as due
        # immediately so the next refresh_cqi call observes it.
        heapq.heappush(self._srs_heap, (-(10 ** 9), rnti))
        ue.watch_channels(self.cell_id, partial(self._channel_swapped, rnti))
        if primary:
            ue.serving_cell_id = self.cell_id

    def remove_ue(self, rnti: int) -> Ue:
        ue = self.ues.pop(rnti)
        ue.unwatch_channels(self.cell_id)
        self._srs_parked.discard(rnti)
        for mapping in (self.known_cqi, self.known_cqi_clear, self.cqi_updated_tti):
            mapping.pop(rnti, None)
        return ue

    def rntis(self) -> List[int]:
        return sorted(self.ues)

    def is_muted(self, tti: int) -> bool:
        """True if the ABS pattern silences this cell at *tti*."""
        return (tti % SUBFRAMES_PER_FRAME) in self.muted_subframes

    def set_abs_pattern(self, subframes: Iterable[int]) -> None:
        """Install an Almost-Blank Subframe pattern (eICIC config)."""
        pattern = set(int(s) for s in subframes)
        bad = [s for s in pattern if not 0 <= s < SUBFRAMES_PER_FRAME]
        if bad:
            raise ValueError(f"ABS subframes out of range 0-9: {sorted(bad)}")
        self.muted_subframes = pattern

    def interferer_muted(self, tti: int) -> bool:
        """Will the dominant interferer stay silent at *tti*?

        Uses the interferer's *announced* ABS pattern -- coordination
        knowledge an eICIC deployment shares over X2 (or, in FlexRAN,
        through the master).  Without an interferer this is ``True``.
        """
        source = self._interference_source
        return source is None or source.is_muted(tti)

    def refresh_cqi(self, tti: int, *, force: bool = False) -> None:
        """Update the eNodeB's CQI knowledge on the SRS period.

        Two values are tracked per UE: the CQI under interference (the
        normal wideband report) and the interference-free CQI (the
        restricted-measurement report eICIC introduces).  For cells
        without an interferer the two coincide.
        """
        has_aggressor = self._interference_source is not None
        updated = self.cqi_updated_tti
        parked = self._srs_parked
        if force:
            # Forced full refresh (attach, SCell activation): observe
            # every UE now, except those an earlier forced pass already
            # observed at this TTI; existing heap entries lazily
            # re-queue themselves to the new due times as they pop.
            again = tti == self._fresh_tti
            for rnti, ue in self.ues.items():
                if again and updated.get(rnti) == tti:
                    continue
                if not self._refresh_one(rnti, ue, tti, has_aggressor):
                    parked.add(rnti)
            self._fresh_tti = tti
            return
        self._srs_served_tti = tti
        heap = self._srs_heap
        ues_get = self.ues.get
        while heap and heap[0][0] <= tti:
            _, rnti = heapq.heappop(heap)
            ue = ues_get(rnti)
            if ue is None or rnti in parked:
                continue  # detached or parked since this entry was queued
            last = updated.get(rnti)
            if last is not None and tti - last < SRS_PERIOD_TTIS:
                # Refreshed more recently than this entry knew (forced
                # refresh, or RNTI reuse): re-queue at the true due.
                heapq.heappush(heap, (last + SRS_PERIOD_TTIS, rnti))
            elif self._refresh_one(rnti, ue, tti, has_aggressor):
                heapq.heappush(heap, (tti + SRS_PERIOD_TTIS, rnti))
            else:
                parked.add(rnti)

    def _refresh_one(self, rnti: int, ue: Ue, tti: int,
                     has_aggressor: bool) -> bool:
        """Refresh the eNodeB's CQI knowledge for one UE at *tti*.

        Returns whether the UE's next report can differ from this one,
        i.e. whether it stays on the SRS schedule.
        """
        channel = ue.channel_for(self.config.cell_id)
        cqi_clear = channel.cqi(tti, interference_active=False)
        cqi = (channel.cqi(tti, interference_active=True)
               if has_aggressor else cqi_clear)
        if (self.known_cqi.get(rnti) != cqi
                or self.known_cqi_clear.get(rnti) != cqi_clear):
            self._on_change(rnti)
        self.known_cqi[rnti] = cqi
        self.known_cqi_clear[rnti] = cqi_clear
        self.cqi_updated_tti[rnti] = tti
        return has_aggressor or not channel.time_invariant

    def _channel_swapped(self, rnti: int) -> None:
        """A channel object of served UE *rnti* was replaced."""
        self._fresh_tti = None
        if rnti in self._srs_parked:
            self._srs_parked.discard(rnti)
            self._rearm(rnti)

    def _rearm(self, rnti: int) -> None:
        """Queue a parked UE's next observation on its own SRS grid:
        the first ``cqi_updated_tti + k * SRS_PERIOD_TTIS`` the
        periodic pass has not served yet -- the TTI at which a UE
        observed every period would report next, so the eNodeB learns
        the new value exactly when it otherwise would."""
        last = self.cqi_updated_tti[rnti]
        periods = max(self._srs_served_tti - last, 0) // SRS_PERIOD_TTIS + 1
        heapq.heappush(self._srs_heap,
                       (last + periods * SRS_PERIOD_TTIS, rnti))

    def scheduling_cqi(self, rnti: int, tti: int) -> int:
        """CQI the scheduler should assume for *rnti* at *tti*.

        If the dominant interferer is known to be muted in this
        subframe (ABS), the interference-free CQI applies.
        """
        if self.interferer_muted(tti):
            return self.known_cqi_clear.get(rnti, 0)
        return self.known_cqi.get(rnti, 0)

    def actual_cqi(self, rnti: int, tti: int) -> int:
        """Ground-truth CQI at transmission time.

        Resolves interference from what the aggressor cell *actually*
        did this TTI (set during the RAN phase's planning pass).
        """
        ue = self.ues[rnti]
        src = self._interference_source
        active = bool(src is not None and src.transmitting
                      and src.last_tx_tti == tti)
        return ue.channel_for(self.cell_id).cqi(
            tti, interference_active=active)

    def mark_transmission(self, tti: int, transmitting: bool) -> None:
        """Record whether this cell transmits user data at *tti*."""
        self.transmitting = transmitting
        if transmitting:
            self.last_tx_tti = tti
