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
    """Runtime state of one carrier."""

    def __init__(self, config: CellConfig) -> None:
        self.config = config
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
        # The dominant interfering cell, if any (eICIC topologies).
        self.interference_source: Optional["Cell"] = None
        # Whether this cell transmitted user data in the last RAN phase;
        # consulted by victims of this cell when resolving interference.
        self.transmitting: bool = False
        self.last_tx_tti: int = -1
        #: Called with the RNTI whenever a CQI refresh changed the
        #: eNodeB's knowledge for that UE (the eNodeB's dirty marking).
        self.cqi_listener: Optional[Callable[[int], None]] = None
        # SRS due-heap of (due_tti, rnti): refresh_cqi pops only the
        # UEs whose report is due this TTI instead of scanning every
        # served UE (per-UE due times spread over all residues of the
        # SRS period, so a full scan never gets to early-return at
        # scale).  Entries are invalidated lazily: a popped entry for a
        # detached RNTI is dropped, and one refreshed more recently
        # than its due time implies (force refresh, RNTI reuse) is
        # re-queued at the true due time.
        self._srs_heap: List[Tuple[int, int]] = []

    @property
    def cell_id(self) -> int:
        return self.config.cell_id

    @property
    def n_prb(self) -> int:
        """Usable DL PRBs right now (carrier width minus any LSA cap)."""
        if self.prb_cap is None:
            return self.config.n_prb_dl
        return max(0, min(self.config.n_prb_dl, self.prb_cap))

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
        if primary:
            ue.serving_cell_id = self.cell_id

    def remove_ue(self, rnti: int) -> Ue:
        ue = self.ues.pop(rnti)
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
        if self.interference_source is None:
            return True
        return self.interference_source.is_muted(tti)

    def refresh_cqi(self, tti: int, *, force: bool = False) -> None:
        """Update the eNodeB's CQI knowledge on the SRS period.

        Two values are tracked per UE: the CQI under interference (the
        normal wideband report) and the interference-free CQI (the
        restricted-measurement report eICIC introduces).  For cells
        without an interferer the two coincide.
        """
        has_aggressor = self.interference_source is not None
        listener = self.cqi_listener
        if force:
            # Forced full refresh (attach, SCell activation): update
            # every UE now; existing heap entries lazily re-queue
            # themselves to the new due times as they pop.
            for rnti, ue in self.ues.items():
                self._refresh_one(rnti, ue, tti, has_aggressor, listener)
            return
        heap = self._srs_heap
        ues_get = self.ues.get
        updated = self.cqi_updated_tti
        while heap and heap[0][0] <= tti:
            _, rnti = heapq.heappop(heap)
            ue = ues_get(rnti)
            if ue is None:
                continue  # detached since this entry was queued
            last = updated.get(rnti)
            if last is not None and tti - last < SRS_PERIOD_TTIS:
                # Refreshed more recently than this entry knew (forced
                # refresh, or RNTI reuse): re-queue at the true due.
                heapq.heappush(heap, (last + SRS_PERIOD_TTIS, rnti))
                continue
            self._refresh_one(rnti, ue, tti, has_aggressor, listener)
            heapq.heappush(heap, (tti + SRS_PERIOD_TTIS, rnti))

    def _refresh_one(self, rnti: int, ue: Ue, tti: int, has_aggressor: bool,
                     listener: Optional[Callable[[int], None]]) -> None:
        """Refresh the eNodeB's CQI knowledge for one UE at *tti*."""
        channel = ue.channel_for(self.cell_id)
        cqi = channel.cqi(tti, interference_active=has_aggressor)
        cqi_clear = channel.cqi(tti, interference_active=False)
        if listener is not None and (
                self.known_cqi.get(rnti) != cqi
                or self.known_cqi_clear.get(rnti) != cqi_clear):
            listener(rnti)
        self.known_cqi[rnti] = cqi
        self.known_cqi_clear[rnti] = cqi_clear
        self.cqi_updated_tti[rnti] = tti

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
        src = self.interference_source
        active = bool(src is not None and src.transmitting
                      and src.last_tx_tti == tti)
        return ue.channel_for(self.cell_id).cqi(
            tti, interference_active=active)

    def mark_transmission(self, tti: int, transmitting: bool) -> None:
        """Record whether this cell transmits user data at *tti*."""
        self.transmitting = transmitting
        if transmitting:
            self.last_tx_tti = tti
