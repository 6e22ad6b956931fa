"""Reference oracle for ``Cell.refresh_cqi``: observe everyone every period.

:class:`EveryPeriodSrs` is the SRS schedule as it stood before parked
UEs existed: every served UE has a due-heap entry, every entry that
comes due reads the channel (twice -- under the assumed interference
state and interference-free), and a forced refresh re-reads the whole
cell.  It parks nobody and skips nothing, so it cannot miss a change.
It is kept only here, as the definition ``Cell``'s schedule is checked
against (the ``tests/sim/context_oracle.py`` pattern): driven beside a
cell -- same ``add_ue`` / ``remove_ue`` / ``refresh_cqi`` calls, one
periodic refresh per TTI -- it must hold the same ``known_cqi`` and
``known_cqi_clear`` and record the same RNTIs in the same order after
every call.  A replaced channel object of a served UE is one record
of its own, at the replacement.

The oracle reads the cell's ``ues``, ``cell_id`` and
``interference_source`` and nothing else; its knowledge, due-heap and
listener are its own.
"""

import heapq
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.lte.cell import Cell, CellConfig
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.ue import Ue


class EveryPeriodSrs:
    """The eNodeB's CQI knowledge of one cell, refreshed every period."""

    def __init__(self, cell: Cell) -> None:
        self.cell = cell
        self.known_cqi: Dict[int, int] = {}
        self.known_cqi_clear: Dict[int, int] = {}
        self.cqi_updated_tti: Dict[int, int] = {}
        self.cqi_listener: Optional[Callable[[int], None]] = None
        self._srs_heap: List[Tuple[int, int]] = []

    def add_ue(self, rnti: int) -> None:
        """Mirror of ``Cell.add_ue``: the newcomer is due immediately."""
        heapq.heappush(self._srs_heap, (-(10 ** 9), rnti))

    def remove_ue(self, rnti: int) -> None:
        for mapping in (self.known_cqi, self.known_cqi_clear,
                        self.cqi_updated_tti):
            mapping.pop(rnti, None)

    def channel_swapped(self, rnti: int) -> None:
        """A channel object of served UE *rnti* was replaced."""
        if self.cqi_listener is not None:
            self.cqi_listener(rnti)

    def refresh_cqi(self, tti: int, *, force: bool = False) -> None:
        ues = self.cell.ues
        has_aggressor = self.cell.interference_source is not None
        if force:
            for rnti, ue in ues.items():
                self._refresh_one(rnti, ue, tti, has_aggressor)
            return
        heap = self._srs_heap
        while heap and heap[0][0] <= tti:
            _, rnti = heapq.heappop(heap)
            ue = ues.get(rnti)
            if ue is None:
                continue  # detached since this entry was queued
            last = self.cqi_updated_tti.get(rnti)
            if last is not None and tti - last < SRS_PERIOD_TTIS:
                heapq.heappush(heap, (last + SRS_PERIOD_TTIS, rnti))
                continue
            self._refresh_one(rnti, ue, tti, has_aggressor)
            heapq.heappush(heap, (tti + SRS_PERIOD_TTIS, rnti))

    def _refresh_one(self, rnti: int, ue: Ue, tti: int,
                     has_aggressor: bool) -> None:
        channel = ue.channel_for(self.cell.cell_id)
        cqi = channel.cqi(tti, interference_active=has_aggressor)
        cqi_clear = channel.cqi(tti, interference_active=False)
        if self.cqi_listener is not None and (
                self.known_cqi.get(rnti) != cqi
                or self.known_cqi_clear.get(rnti) != cqi_clear):
            self.cqi_listener(rnti)
        self.known_cqi[rnti] = cqi
        self.known_cqi_clear[rnti] = cqi_clear
        self.cqi_updated_tti[rnti] = tti


class ShadowedCell:
    """A :class:`Cell` and its oracle, driven by the same calls.

    Every ``refresh`` compares the two: knowledge and the whole history
    of change records (the cell's ``on_change`` calls) against the
    oracle's listener calls, order included.
    """

    def __init__(self, config: CellConfig) -> None:
        self.calls: List[int] = []
        self.oracle_calls: List[int] = []
        self.cell = Cell(config, self.calls.append)
        self.oracle = EveryPeriodSrs(self.cell)
        self.oracle.cqi_listener = self.oracle_calls.append

    def add_ue(self, rnti: int, ue: Ue, tti: int, *,
               primary: bool = True) -> None:
        """What ``EnodeB.attach_ue`` / ``activate_scell`` do to a cell."""
        self.cell.add_ue(rnti, ue, primary=primary)
        self.oracle.add_ue(rnti)
        # Heard after the cell, which registered first.
        ue.watch_channels(("oracle", self.cell.cell_id),
                          partial(self.oracle.channel_swapped, rnti))
        self.refresh(tti, force=True)

    def remove_ue(self, rnti: int) -> None:
        self.cell.ues[rnti].unwatch_channels(("oracle", self.cell.cell_id))
        self.cell.remove_ue(rnti)
        self.oracle.remove_ue(rnti)

    def refresh(self, tti: int, *, force: bool = False) -> None:
        self.cell.refresh_cqi(tti, force=force)
        self.oracle.refresh_cqi(tti, force=force)
        where = (f"cell {self.cell.cell_id} tti {tti}"
                 f"{' (forced)' if force else ''}")
        assert self.cell.known_cqi == self.oracle.known_cqi, where
        assert self.cell.known_cqi_clear == self.oracle.known_cqi_clear, where
        assert self.calls == self.oracle_calls, where
