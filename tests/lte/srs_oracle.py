"""Reference oracle for ``Cell.refresh_cqi``: observe everyone every period.

:class:`EveryPeriodSrs` is the SRS schedule as it stood before parked
UEs existed: every served UE has a due-heap entry, every entry that
comes due reads the channel (the CQI under the assumed interference
state, the interference-free CQI, and, for a UE this cell is the PCell
of, the SINR and neighbor-cell CQIs it reports).  A newcomer is
observed at the TTI it is added and nobody else is.  It parks nobody
and skips nothing, so it cannot miss a change.  It is kept only here,
as the definition ``Cell``'s schedule is checked against (the
``tests/sim/context_oracle.py`` pattern): driven beside a cell -- same
``add_ue`` / ``remove_ue`` / ``refresh_cqi`` calls, one periodic
refresh per TTI -- it must hold the same knowledge and record the same
RNTIs, of each kind, in the same order after every call.  A replaced
channel object records nothing until the next observation.

The oracle reads the cell's ``ues``, ``cell_id`` and
``_interference_source`` and nothing else; its knowledge, due-heap and
listeners are its own.
"""

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.lte.cell import Cell, CellConfig
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.ue import Ue


class EveryPeriodSrs:
    """The eNodeB's knowledge of one cell's UEs, refreshed every period."""

    def __init__(self, cell: Cell) -> None:
        self.cell = cell
        self.known_cqi: Dict[int, int] = {}
        self.known_cqi_clear: Dict[int, int] = {}
        self.cqi_updated_tti: Dict[int, int] = {}
        self.known_sinr_x10: Dict[int, int] = {}
        self.known_neighbor_cqi: Dict[int, Dict[int, int]] = {}
        self.cqi_listener: Optional[Callable[[int], None]] = None
        self.report_listener: Optional[Callable[[int], None]] = None
        self._srs_heap: List[Tuple[int, int]] = []

    def add_ue(self, rnti: int, tti: int) -> None:
        """Mirror of ``Cell.add_ue``: the newcomer is observed now."""
        cell = self.cell
        self._refresh_one(rnti, cell.ues[rnti], tti,
                          cell._interference_source is not None)
        heapq.heappush(self._srs_heap, (tti + SRS_PERIOD_TTIS, rnti))

    def remove_ue(self, rnti: int) -> None:
        for mapping in (self.known_cqi, self.known_cqi_clear,
                        self.cqi_updated_tti, self.known_sinr_x10,
                        self.known_neighbor_cqi):
            mapping.pop(rnti, None)

    def refresh_cqi(self, tti: int) -> None:
        ues = self.cell.ues
        has_aggressor = self.cell._interference_source is not None
        heap = self._srs_heap
        while heap and heap[0][0] <= tti:
            _, rnti = heapq.heappop(heap)
            ue = ues.get(rnti)
            if ue is None:
                continue  # detached since this entry was queued
            last = self.cqi_updated_tti[rnti]
            if tti - last < SRS_PERIOD_TTIS:
                heapq.heappush(heap, (last + SRS_PERIOD_TTIS, rnti))
                continue
            self._refresh_one(rnti, ue, tti, has_aggressor)
            heapq.heappush(heap, (tti + SRS_PERIOD_TTIS, rnti))

    def _refresh_one(self, rnti: int, ue: Ue, tti: int,
                     has_aggressor: bool) -> None:
        cell_id = self.cell.cell_id
        channel = ue.carrier_channels.get(cell_id, ue.channel)
        cqi = channel.cqi(tti, interference_active=has_aggressor)
        cqi_clear = channel.cqi(tti, interference_active=False)
        if self.cqi_listener is not None and (
                self.known_cqi.get(rnti) != cqi
                or self.known_cqi_clear.get(rnti) != cqi_clear):
            self.cqi_listener(rnti)
        self.known_cqi[rnti] = cqi
        self.known_cqi_clear[rnti] = cqi_clear
        self.cqi_updated_tti[rnti] = tti
        if ue.serving_cell_id != cell_id:
            return
        sinr_x10 = int(round(channel.sinr_db(tti, interference_active=True)
                             * 10))
        neighbors = {cid: ch.cqi(tti, interference_active=True)
                     for cid, ch in ue.neighbor_channels.items()}
        if self.report_listener is not None and (
                self.known_sinr_x10.get(rnti) != sinr_x10
                or self.known_neighbor_cqi.get(rnti) != neighbors):
            self.report_listener(rnti)
        self.known_sinr_x10[rnti] = sinr_x10
        self.known_neighbor_cqi[rnti] = neighbors


class ShadowedCell:
    """A :class:`Cell` and its oracle, driven by the same calls.

    Every ``refresh`` compares the two: knowledge and the whole history
    of change records (the cell's ``on_change`` and ``on_report``
    calls) against the oracle's listener calls, order included.
    """

    def __init__(self, config: CellConfig) -> None:
        self.calls: List[int] = []
        self.report_calls: List[int] = []
        self.oracle_calls: List[int] = []
        self.oracle_report_calls: List[int] = []
        self.cell = Cell(config, self.calls.append, self.report_calls.append)
        self.oracle = EveryPeriodSrs(self.cell)
        self.oracle.cqi_listener = self.oracle_calls.append
        self.oracle.report_listener = self.oracle_report_calls.append

    def add_ue(self, rnti: int, ue: Ue, tti: int, *,
               primary: bool = True) -> None:
        """What ``EnodeB.attach_ue`` / ``activate_scell`` do to a cell."""
        self.cell.add_ue(rnti, ue, tti, primary=primary)
        self.oracle.add_ue(rnti, tti)
        self.compare(f"add of {rnti}", tti)

    def remove_ue(self, rnti: int) -> None:
        self.cell.remove_ue(rnti)
        self.oracle.remove_ue(rnti)

    def refresh(self, tti: int) -> None:
        self.cell.refresh_cqi(tti)
        self.oracle.refresh_cqi(tti)
        self.compare("refresh", tti)

    def compare(self, what: str, tti: int) -> None:
        where = f"cell {self.cell.cell_id} tti {tti} {what}"
        cell, oracle = self.cell, self.oracle
        assert cell.known_cqi == oracle.known_cqi, where
        assert cell.known_cqi_clear == oracle.known_cqi_clear, where
        assert cell.known_sinr_x10 == oracle.known_sinr_x10, where
        assert cell.known_neighbor_cqi == oracle.known_neighbor_cqi, where
        assert self.calls == self.oracle_calls, where
        assert self.report_calls == self.oracle_report_calls, where
