"""Cell: one LTE carrier of an eNodeB.

Holds the radio configuration FlexRAN exposes through configuration
calls (bandwidth, PRB count, band, antenna ports -- Table 1), the set
of served UEs, the eNodeB's *knowledge* of each UE's CQI (refreshed on
the SRS/CQI reporting period, hence possibly stale) and of what each
UE reported beside it, the ABS muting pattern used by eICIC, and the
interference wiring between cells.  The SRS observation is the only
place the eNodeB reads a UE's channel for knowledge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set

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

_NO_NEIGHBORS: Dict[int, int] = {}  # shared: a neighbor map is never edited


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

    *on_change* is called with the RNTI whenever an observation changes
    the eNodeB's CQI knowledge of that UE; *on_report* whenever it
    changes what only a statistics report reads of it (the SINR and
    the neighbor-cell CQIs the UE reported).
    """

    def __init__(self, config: CellConfig,
                 on_change: Callable[[int], None],
                 on_report: Callable[[int], None]) -> None:
        self.config = config
        self._on_change = on_change
        self._on_report = on_report
        self.ues: Dict[int, Ue] = {}
        # eNodeB's knowledge of UE channel quality: refreshed only every
        # SRS period, under the cell's *assumed* interference state.
        # Every served UE has an entry: add_ue observes the newcomer.
        self.known_cqi: Dict[int, int] = {}
        self.known_cqi_clear: Dict[int, int] = {}
        self.cqi_updated_tti: Dict[int, int] = {}
        # What a UE served as its PCell reported at the same observation:
        # wideband SINR (dB x 10, fixed point) and the CQI toward each
        # neighbor cell.  A neighbor map is replaced, never edited.
        self.known_sinr_x10: Dict[int, int] = {}
        self.known_neighbor_cqi: Dict[int, Dict[int, int]] = {}
        # eICIC: subframes (0-9) where this cell must stay silent.
        self.muted_subframes: Set[int] = set()
        # A runtime cap on usable DL PRBs (PrbCapConfig); None means
        # the full carrier is licensed for use right now.
        self.prb_cap: Optional[int] = None
        #: Usable DL PRBs right now: the carrier width, or less under
        #: a cap (read-only to callers; set_prb_cap keeps it).
        self.n_prb: int = config.n_prb_dl
        # The dominant interfering cell, if any (eICIC topologies);
        # assigned through set_interference_source.
        self._interference_source: Optional["Cell"] = None
        # Whether this cell transmitted user data in the last RAN phase;
        # consulted by victims of this cell when resolving interference.
        self.transmitting: bool = False
        self.last_tx_tti: int = -1
        # SRS schedule: due buckets (due TTI -> RNTIs) and a heap of
        # the distinct due TTIs; refresh_cqi pops the TTIs due by now
        # and serves their RNTIs in (due, rnti) order, so a TTI with
        # nothing due costs a test and a shared phase one heap pop.  A
        # newcomer is observed at the TTI it is added and then reports
        # on that phase, so UEs attached together share one (a
        # deployment built at one TTI reports on one TTI in
        # SRS_PERIOD_TTIS).  Entries are invalidated lazily: a served
        # entry for a detached or parked RNTI is dropped, and one
        # observed more recently than its due TTI implies (RNTI reuse)
        # is re-queued at the true due TTI.
        self._srs_due: Dict[int, Set[int]] = {}
        self._srs_due_ttis: List[int] = []
        # Parked RNTIs have no live entry: they were observed on a
        # channel object that declares time_invariant, with no
        # interferer and no neighbor channels, so their next report
        # cannot differ.  For them cqi_updated_tti is the last
        # observation, however old; a replaced channel object or a new
        # interferer re-arms them.
        self._srs_parked: Set[int] = set()
        # Last TTI the periodic pass served (_rearm's "now").
        self._srs_served_tti = -1

    @property
    def cell_id(self) -> int:
        return self.config.cell_id

    #: The dominant interfering cell, or ``None`` (assign it with
    #: :meth:`set_interference_source`).  A C-level getter: the view
    #: cache tests it on every build.
    interference_source = property(attrgetter("_interference_source"))

    def set_interference_source(self, source: Optional["Cell"]) -> None:
        """Make *source* this cell's dominant interferer (``None``: none)."""
        self._interference_source = source
        # Under an interferer every report has two states to tell
        # apart, so nobody stays parked.
        for rnti in self._srs_parked:
            self._rearm(rnti)
        self._srs_parked.clear()

    def set_prb_cap(self, cap: Optional[int]) -> None:
        """Restrict (or restore) the usable downlink PRBs at runtime."""
        if cap is not None and cap < 0:
            raise ValueError(f"PRB cap must be >= 0, got {cap}")
        self.prb_cap = cap
        width = self.config.n_prb_dl
        self.n_prb = width if cap is None else min(width, cap)

    def add_ue(self, rnti: int, ue: Ue, tti: int, *,
               primary: bool = True) -> None:
        """Serve *rnti* from *tti* on, observing it there: the newcomer,
        and nobody else, is then on the SRS grid of *tti* or parked."""
        if rnti in self.ues:
            raise ValueError(f"RNTI {rnti} already served by cell {self.cell_id}")
        self.ues[rnti] = ue
        ue.watch_channels(self.cell_id, partial(self._channel_swapped, rnti))
        if primary:
            ue.serving_cell_id = self.cell_id
        if self._observe([rnti], tti):
            self._queue(tti + SRS_PERIOD_TTIS, (rnti,))

    def remove_ue(self, rnti: int) -> Ue:
        ue = self.ues.pop(rnti)
        ue.unwatch_channels(self.cell_id)
        self._srs_parked.discard(rnti)
        for mapping in (self.known_cqi, self.known_cqi_clear,
                        self.cqi_updated_tti, self.known_sinr_x10,
                        self.known_neighbor_cqi):
            mapping.pop(rnti, None)
        return ue

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

    def refresh_cqi(self, tti: int) -> None:
        """Update the eNodeB's CQI knowledge on the SRS period.

        Two values are tracked per UE: the CQI under interference (the
        normal wideband report) and the interference-free CQI (the
        restricted-measurement report eICIC introduces).  For cells
        without an interferer the two coincide.
        """
        self._srs_served_tti = tti
        due_ttis = self._srs_due_ttis
        if not (due_ttis and due_ttis[0] <= tti):
            return
        batch = []
        due = self._srs_due
        while due_ttis and due_ttis[0] <= tti:
            batch += sorted(due.pop(heapq.heappop(due_ttis)))
        # Entries of RNTIs detached or parked since they were queued
        # are dropped.  An RNTI in two buckets is observed twice at one
        # TTI, which reads the same values again.
        ues = self.ues
        parked = self._srs_parked
        updated = self.cqi_updated_tti
        live = [rnti for rnti in batch if rnti in ues and rnti not in parked]
        rntis = [rnti for rnti in live
                 if tti - updated[rnti] >= SRS_PERIOD_TTIS]
        if len(rntis) < len(live):
            # Observed more recently than their entries knew (a re-used
            # RNTI): re-queue at the true due TTIs.
            for rnti in set(live).difference(rntis):
                self._queue(updated[rnti] + SRS_PERIOD_TTIS, (rnti,))
        moving = self._observe(rntis, tti)
        if moving:
            self._queue(tti + SRS_PERIOD_TTIS, moving)

    def _queue(self, due_tti: int, rntis: Iterable[int]) -> None:
        """Make *rntis* due at *due_tti*."""
        bucket = self._srs_due.get(due_tti)
        if bucket is None:
            bucket = self._srs_due[due_tti] = set()
            heapq.heappush(self._srs_due_ttis, due_tti)
        bucket.update(rntis)

    def _observe(self, rntis: List[int], tti: int) -> List[int]:
        """Refresh the eNodeB's knowledge of *rntis* at *tti*, in that
        order: the CQIs and, for the UEs this is the PCell of, the SINR
        and neighbor-cell CQIs they report.

        Parks the UEs whose next report cannot differ from this one and
        returns the others, which stay on the SRS schedule.  One call
        per pass: an observation costs the channel's reads and nothing
        else.
        """
        has_aggressor = self._interference_source is not None
        ues = self.ues
        known = self.known_cqi
        known_clear = self.known_cqi_clear
        sinrs = self.known_sinr_x10
        neighbor_cqis = self.known_neighbor_cqi
        updated = self.cqi_updated_tti
        record = self._on_change
        record_report = self._on_report
        cell_id = self.config.cell_id
        settled = []
        for rnti in rntis:
            ue = ues[rnti]
            # The UE's channel on this carrier, else its primary one.
            carriers = ue.carrier_channels
            channel = carriers[cell_id] if cell_id in carriers else ue.channel
            cqi_clear = channel.cqi(tti, interference_active=False)
            cqi = (channel.cqi(tti, interference_active=True)
                   if has_aggressor else cqi_clear)
            if known.get(rnti) != cqi or known_clear.get(rnti) != cqi_clear:
                record(rnti)
            known[rnti] = cqi
            known_clear[rnti] = cqi_clear
            updated[rnti] = tti
            neighbors = ue.neighbor_channels
            if ue.serving_cell_id == cell_id:
                sinr_x10 = round(channel.sinr_db(tti) * 10)
                seen = ({cid: ch.cqi(tti) for cid, ch in neighbors.items()}
                        if neighbors else _NO_NEIGHBORS)
                if sinrs.get(rnti) != sinr_x10 or \
                        neighbor_cqis.get(rnti) != seen:
                    record_report(rnti)
                    sinrs[rnti] = sinr_x10
                    neighbor_cqis[rnti] = seen
            if not has_aggressor and channel.time_invariant and not neighbors:
                settled.append(rnti)
        if not settled:
            return rntis
        parked = self._srs_parked
        parked.update(settled)
        return [rnti for rnti in rntis if rnti not in parked]

    def _channel_swapped(self, rnti: int) -> None:
        """A channel object of served UE *rnti* was replaced: a parked UE
        re-arms.  Nothing the eNodeB knows has moved until the next
        observation, which records what it finds."""
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
        self._queue(last + periods * SRS_PERIOD_TTIS, (rnti,))

    def scheduling_cqis(self, tti: int) -> Dict[int, int]:
        """The CQIs (RNTI -> CQI) the scheduler should assume at *tti*.

        If the dominant interferer is known to be muted in this
        subframe (ABS), or there is none, the interference-free CQIs
        apply.
        """
        source = self._interference_source
        if source is None or source.is_muted(tti):
            return self.known_cqi_clear
        return self.known_cqi

    def scheduling_cqi(self, rnti: int, tti: int) -> int:
        """CQI the scheduler should assume for *rnti* at *tti*."""
        return self.scheduling_cqis(tti)[rnti]

    def actual_cqi(self, rnti: int, tti: int) -> int:
        """Ground-truth CQI at transmission time.

        Resolves interference from what the aggressor cell *actually*
        did this TTI (set during the RAN phase's planning pass).
        """
        ue = self.ues[rnti]
        src = self._interference_source
        active = (src is not None and src.transmitting
                  and src.last_tx_tti == tti)  # a bool, without a call
        carriers = ue.carrier_channels  # as in _observe
        cell_id = self.config.cell_id
        channel = carriers[cell_id] if cell_id in carriers else ue.channel
        return channel.cqi(tti, interference_active=active)

    def mark_transmission(self, tti: int, transmitting: bool) -> None:
        """Record whether this cell transmits user data at *tti*."""
        self.transmitting = transmitting
        if transmitting:
            self.last_tx_tti = tti
