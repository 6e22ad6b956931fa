"""The cell's SRS schedule: parked UEs, re-arming, the attach storm.

A UE on a channel object that declares ``time_invariant``, in a cell
with no interferer, is observed once and then *parked*: it has no
due-heap entry and costs nothing per period.  For such a UE
``Cell.cqi_updated_tti`` is the TTI of its last observation, which may
be arbitrarily long ago (for everyone else it is still at most one SRS
period old); nothing outside ``lte/cell.py`` reads it, which the last
test here pins.  Whatever can make the next report differ re-arms the
UE on the SRS grid its last observation started, so the eNodeB learns
a new value at the TTI the every-period schedule
(``tests/lte/srs_oracle.py``) would have delivered it.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.lte.cell import Cell, CellConfig
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import (
    ChannelModel,
    FixedCqi,
    GaussMarkovSinr,
    InterferenceChannel,
    SquareWaveCqi,
)
from repro.lte.ue import Ue
from tests.lte.srs_oracle import ShadowedCell

PCELL, SCELL = 10, 11


class CountingFixedCqi(FixedCqi):
    """A static link that counts how often it is read."""

    def __init__(self, cqi: int) -> None:
        super().__init__(cqi)
        self.reads = 0

    def cqi(self, tti: int, *, interference_active: bool = True) -> int:
        self.reads += 1
        return super().cqi(tti, interference_active=interference_active)


# -- equivalence with the every-period oracle -------------------------------

channels = st.one_of(
    st.tuples(st.just("fixed"), st.integers(1, 15)),
    st.tuples(st.just("square"), st.integers(8, 15), st.integers(1, 7),
              st.integers(3, 40)),
    st.tuples(st.just("fading"), st.integers(0, 20), st.integers(0, 50)),
    st.tuples(st.just("interfered"), st.integers(10, 22), st.integers(0, 9)),
)


def make_channel(spec) -> ChannelModel:
    kind, *args = spec
    if kind == "fixed":
        return FixedCqi(args[0])
    if kind == "square":
        return SquareWaveCqi(args[0], args[1], period_ttis=args[2])
    if kind == "fading":
        return GaussMarkovSinr(float(args[0]), sigma_db=3.0, seed=args[1])
    return InterferenceChannel(float(args[0]), float(args[1]))


index = st.integers(0, 1000)
cell_ids = st.sampled_from([PCELL, SCELL])
ops = st.one_of(
    st.tuples(st.just("attach"), channels),
    st.tuples(st.just("detach"), index),
    st.tuples(st.just("scell_on"), index),
    st.tuples(st.just("scell_off"), index),
    st.tuples(st.just("swap_channel"), index, channels),
    st.tuples(st.just("swap_carrier"), index, st.none() | channels),
    st.tuples(st.just("aggressor"), cell_ids, st.booleans()),
    st.tuples(st.just("force"), cell_ids),
)
# One step: what happens before this TTI's periodic refresh, what happens
# after it, and how many uneventful TTIs follow.
steps = st.lists(
    st.tuples(st.lists(ops, max_size=3), st.lists(ops, max_size=2),
              st.integers(0, 2 * SRS_PERIOD_TTIS + 3)),
    min_size=1, max_size=12)


class Deployment:
    """Two carriers of one eNodeB, each shadowed by the oracle, driven the
    way ``EnodeB`` drives its cells."""

    def __init__(self) -> None:
        self.cells = {c: ShadowedCell(CellConfig(cell_id=c))
                      for c in (PCELL, SCELL)}
        self.aggressor = Cell(CellConfig(cell_id=20), set().add)
        self.ues = {}        # rnti -> Ue, attached to the PCell
        self.on_scell = set()
        self.next_rnti = 70

    def pick(self, idx):
        rntis = sorted(self.ues)
        return rntis[idx % len(rntis)] if rntis else None

    def apply(self, op, tti: int) -> None:
        kind, *args = op
        if kind == "attach":
            rnti, self.next_rnti = self.next_rnti, self.next_rnti + 1
            self.ues[rnti] = Ue(f"{rnti:03d}", make_channel(args[0]))
            self.cells[PCELL].add_ue(rnti, self.ues[rnti], tti)
            return
        if kind == "aggressor":
            self.cells[args[0]].cell.interference_source = (
                self.aggressor if args[1] else None)
            return
        if kind == "force":
            self.cells[args[0]].refresh(tti, force=True)
            return
        rnti = self.pick(args[0])
        if rnti is None:
            return
        ue = self.ues[rnti]
        if kind == "detach":
            if rnti in self.on_scell:
                self.on_scell.discard(rnti)
                self.cells[SCELL].remove_ue(rnti)
            self.cells[PCELL].remove_ue(rnti)
            del self.ues[rnti]
        elif kind == "scell_on" and rnti not in self.on_scell:
            self.on_scell.add(rnti)
            self.cells[SCELL].add_ue(rnti, ue, tti, primary=False)
        elif kind == "scell_off" and rnti in self.on_scell:
            self.on_scell.discard(rnti)
            self.cells[SCELL].remove_ue(rnti)
        elif kind == "swap_channel":
            ue.channel = make_channel(args[1])
        elif kind == "swap_carrier":
            if args[1] is not None:
                ue.carrier_channels[SCELL] = make_channel(args[1])
            elif SCELL in ue.carrier_channels:
                del ue.carrier_channels[SCELL]

    def tick(self, tti: int) -> None:
        for shadowed in self.cells.values():
            shadowed.refresh(tti)


@settings(max_examples=200, deadline=None)
@given(program=steps)
def test_schedule_matches_every_period_oracle(program):
    """Same knowledge, same change records, TTI by TTI, whatever mix of
    static, switching, fading and interfered UEs comes and goes."""
    dep = Deployment()
    tti = 0
    for before, after, quiet in program:
        for op in before:
            dep.apply(op, tti)
        dep.tick(tti)
        for op in after:
            dep.apply(op, tti)
        for tti in range(tti + 1, tti + 1 + quiet):
            dep.tick(tti)
        tti += 1
    for tti in range(tti, tti + 2 * SRS_PERIOD_TTIS + 1):
        dep.tick(tti)


# -- parked UEs ---------------------------------------------------------------

def test_parked_ue_costs_no_channel_reads():
    cell = Cell(CellConfig(cell_id=PCELL), set().add)
    channel = CountingFixedCqi(9)
    cell.add_ue(70, Ue("001", channel))
    cell.refresh_cqi(0, force=True)
    cell.refresh_cqi(0)
    observed = channel.reads
    assert observed == 1  # no interferer: one read serves both CQIs
    for tti in range(1, 101):
        cell.refresh_cqi(tti)
    assert channel.reads == observed
    assert cell.known_cqi[70] == cell.known_cqi_clear[70] == 9
    # Parked: the stamp is the last observation, ten periods ago.
    assert cell.cqi_updated_tti[70] == 0


def swapped_in_at(swap) -> int:
    """Attach a static UE at TTI 0, run to TTI 104, apply *swap*, and
    return the TTI at which the cell learns of CQI 6."""
    cell = Cell(CellConfig(cell_id=PCELL), set().add)
    ue = Ue("001", FixedCqi(12))
    cell.add_ue(70, ue)
    cell.refresh_cqi(0, force=True)
    for tti in range(105):
        cell.refresh_cqi(tti)
    swap(cell, ue)
    for tti in range(105, 140):
        cell.refresh_cqi(tti)
        if cell.known_cqi[70] == 6:
            return tti
    raise AssertionError("the cell never learned the new CQI")


def test_swapped_channel_is_learned_at_the_next_srs_instant():
    def swap(cell, ue):
        ue.channel = FixedCqi(6)
    assert swapped_in_at(swap) == 110


def test_replaced_carrier_channel_is_learned_at_the_next_srs_instant():
    def swap(cell, ue):
        ue.carrier_channels[PCELL] = FixedCqi(6)
    assert swapped_in_at(swap) == 110


def test_interferer_rearms_parked_ues_on_their_grid():
    cell = Cell(CellConfig(cell_id=PCELL), set().add)
    channel = CountingFixedCqi(9)
    cell.add_ue(70, Ue("001", channel))
    cell.refresh_cqi(3, force=True)
    for tti in range(3, 48):
        cell.refresh_cqi(tti)
    assert channel.reads == 1
    cell.interference_source = Cell(CellConfig(cell_id=20), set().add)
    for tti in range(48, 54):
        cell.refresh_cqi(tti)
        # 3 + 5 * 10: the first grid instant after the change.
        assert cell.cqi_updated_tti[70] == (53 if tti == 53 else 3)
    # Interfered and clear are read separately, every period, from now on.
    for tti in range(54, 74):
        cell.refresh_cqi(tti)
    assert channel.reads == 1 + 2 * 3
    cell.interference_source = None
    for tti in range(74, 200):
        cell.refresh_cqi(tti)
    assert cell.cqi_updated_tti[70] == 83  # parked again at the next report
    assert channel.reads == 1 + 2 * 3 + 1


def test_bulk_carrier_channel_edits_are_refused():
    ue = Ue("001")
    for edit in (lambda c: c.update({SCELL: FixedCqi(3)}),
                 lambda c: c.pop(SCELL, None),
                 lambda c: c.setdefault(SCELL, FixedCqi(3)),
                 lambda c: c.clear()):
        with pytest.raises(TypeError):
            edit(ue.carrier_channels)


# -- the attach storm -----------------------------------------------------------

def test_attach_storm_observes_each_channel_once():
    """100 UEs attached at one TTI: each forced refresh used to re-read
    the whole cell (5 050 observations, two reads each)."""
    enb = EnodeB(1)
    channels = [CountingFixedCqi(1 + i % 15) for i in range(100)]
    rntis = [enb.attach_ue(Ue(f"{i:03d}", ch), tti=7)
             for i, ch in enumerate(channels)]
    assert [ch.reads for ch in channels] == [1] * 100
    cell = enb.cell()
    # The SRS phase every UE had before: the storm's TTI.
    assert [cell.cqi_updated_tti[r] for r in rntis] == [7] * 100
    assert [cell.known_cqi[r] for r in rntis] == [
        1 + i % 15 for i in range(100)]


def test_attach_storm_keeps_moving_channels_in_phase():
    enb = EnodeB(1)
    rntis = [enb.attach_ue(
        Ue(f"{i:03d}", SquareWaveCqi(12, 4, period_ttis=25)), tti=0)
        for i in range(20)]
    cell = enb.cell()
    for tti in range(0, 3 * SRS_PERIOD_TTIS + 5):
        enb.tick(tti)
        want = tti - tti % SRS_PERIOD_TTIS
        assert {cell.cqi_updated_tti[r] for r in rntis} == {want}


def test_a_later_attach_still_rephases_the_cell():
    """The phase-lock on moving channels is kept: a forced refresh at a
    new TTI observes everyone, parked UEs included."""
    enb = EnodeB(1)
    first = enb.attach_ue(Ue("001", FixedCqi(9)), tti=0)
    second = enb.attach_ue(Ue("002", SquareWaveCqi(12, 4, 25)), tti=0)
    for tti in range(14):
        enb.tick(tti)
    third = enb.attach_ue(Ue("003", FixedCqi(5)), tti=14)
    cell = enb.cell()
    assert [cell.cqi_updated_tti[r] for r in (first, second, third)] == [
        14, 14, 14]


def test_forced_refresh_rereads_after_a_change_within_the_tti():
    """The skip rests on reads repeating within a TTI; a new interferer
    or channel object between two forced passes of one TTI breaks that."""
    shadowed = ShadowedCell(CellConfig(cell_id=PCELL))
    first = Ue("001", InterferenceChannel(20.0, 2.0))
    shadowed.add_ue(70, first, 5)
    clear = shadowed.cell.known_cqi[70]
    shadowed.cell.interference_source = Cell(CellConfig(cell_id=20),
                                             set().add)
    shadowed.add_ue(71, Ue("002", FixedCqi(7)), 5)
    assert shadowed.cell.known_cqi[70] < clear
    first.channel = FixedCqi(3)
    shadowed.add_ue(72, Ue("003", FixedCqi(7)), 5)
    assert shadowed.cell.known_cqi[70] == 3


# -- who reads the stamp -------------------------------------------------------

def test_only_the_cell_reads_cqi_updated_tti():
    src = Path(repro.__file__).parent
    readers = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if re.search(r"\bcqi_updated_tti\b", path.read_text()))
    assert readers == ["lte/cell.py"]
