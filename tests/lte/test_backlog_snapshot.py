"""One backlog snapshot per RLC change, shared by every reader; and what
a transmitted block costs.

``RlcEntity.backlog()`` builds ``(lcid -> bytes, total)`` on the first
read after a write and hands the same objects to the scheduler's view
cache and to the agent's record builder until the next write drops
them; a snapshot handed out is never mutated (DESIGN.md sections 6 and
8).
"""

from collections import Counter
from dataclasses import astuple
from typing import Dict, Tuple

import pytest

from repro.core.agent.api import AgentDataPlaneApi
from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.rlc import RlcEntity
from repro.lte.ue import Ue
from tests.calls import Calls, expose_draws
from tests.lte.test_change_records import connected_enb


def test_a_report_keeps_its_queues_and_the_view_gets_new_ones():
    enb, (rnti, _) = connected_enb()
    api = AgentDataPlaneApi(enb)
    enb.rlc[rnti].enqueue(700, 40)
    (record,) = [rec for _, rec in api.collect_ue_stats(40, -1)
                 if rec.rnti == rnti]
    view = enb.build_context(10, 40).ue(rnti)
    assert view.queues is record.queues  # one snapshot, two readers
    reported = dict(record.queues)
    enb.rlc[rnti].enqueue(300, 41)
    fresh = enb.build_context(10, 41).ue(rnti).queues
    assert record.queues == reported
    assert fresh is not record.queues
    assert fresh == {**reported, 3: reported[3] + 300}


def test_both_readers_share_one_build_per_rlc_change(monkeypatch):
    """Per UE, one snapshot is built per stretch between two TTIs' reads
    in which its RLC changed, although the view cache and the record
    pass both read every such change; after each TTI both hold the same
    object."""
    builds = Counter()
    backlog = RlcEntity.backlog

    def counting_backlog(rlc):
        builds[rlc.rnti] += rlc._backlog is None
        return backlog(rlc)

    monkeypatch.setattr(RlcEntity, "backlog", counting_backlog)
    enb, rntis = connected_enb(n_ues=3)
    api = AgentDataPlaneApi(enb)

    def state(rnti):
        rlc = enb.rlc[rnti]
        return astuple(rlc.stats), rlc.queues.sizes()

    api.collect_ue_stats(39, -1)  # every record read whole: none stale
    since = enb.change_seq
    builds.clear()
    seen = {rnti: state(rnti) for rnti in rntis}
    changes = Counter()
    for tti in range(40, 140):
        for i, rnti in enumerate(rntis):
            if (tti + i) % (i + 2) == 0:
                enb.enqueue_dl(rnti, 900 * (i + 1), tti)
        for rnti in rntis:  # what the readers are about to see
            now = state(rnti)
            changes[rnti] += now != seen[rnti]
            seen[rnti] = now
        api.collect_ue_stats(tti, since)
        since = enb.change_seq
        enb.tick(tti)
        views = enb._view_cache[10]._views
        for rnti in rntis:
            assert api._records[rnti].queues is views[rnti].queues
    assert all(changes[rnti] > 10 for rnti in rntis)
    assert builds == changes


def calls_per_block(ttis: int = 200, *,
                    whole_trip: bool = False) -> Tuple[float, Calls]:
    """The calls a one-cell, one-UE saturated eNodeB makes per
    transmitted block, its generator's draws included (``tests/calls.py``):
    the transmit pass alone, or with *whole_trip* the plan pass too
    (feedback, RRC, CQI refresh, context, scheduler, validation).
    Saturated, every TTI sends one block and takes one block's HARQ
    feedback, so a TTI is one block's whole trip."""
    enb = EnodeB(1, [CellConfig(cell_id=10)])
    expose_draws(enb)
    rnti = enb.attach_ue(Ue("001", FixedCqi(12)), 10, tti=0)
    for tti in range(40):
        enb.enqueue_dl(rnti, 1500, tti)
        enb.tick(tti)
    calls = Calls()
    blocks = enb.counters.dl_assignments
    for tti in range(40, 40 + ttis):
        for _ in range(4):
            enb.enqueue_dl(rnti, 1500, tti)
        if whole_trip:
            calls.run(enb.plan, tti)
        else:
            enb.plan(tti)
        calls.run(enb.transmit, tti)
    blocks = enb.counters.dl_assignments - blocks
    assert blocks == ttis  # saturated: one block per TTI
    return calls.total / blocks, calls


def test_a_transmitted_block_stays_under_its_call_ceiling():
    # 49.5 calls per block before the transmit path was first trimmed,
    # 31.5 after it, 21.455 since a block's trip makes no needless call
    # (CPython 3.11, exact).
    per_block, calls = calls_per_block()
    assert per_block <= 21.455, calls


def test_a_blocks_whole_trip_stays_under_its_call_ceiling(monkeypatch):
    # Schedule, validate, transmit, HARQ feedback, delivery: 100.5
    # calls per block while idle sub-passes and the trip's helpers
    # were calls, 52.455 since (CPython 3.11, exact).  Counted on the
    # eNodeB's own build_context: the autouse context oracle is undone
    # first.
    monkeypatch.undo()
    per_block, calls = calls_per_block(whole_trip=True)
    assert per_block <= 52.455, calls


def calls_per_settled_change(ttis: int = 100) -> Tuple[int, Dict[str, Calls]]:
    """Settled RLC changes, and the calls of each stretch they pass
    through: the write (EPC ingress), the view cache's refresh
    (``build_context``) and the agent's record pass.  Four connected
    UEs, two of them written to on every TTI; nothing else changes."""
    enb, rntis = connected_enb(n_ues=4)
    api = AgentDataPlaneApi(enb)
    for rnti in rntis:  # every bearer exists, every view is backlogged
        enb.enqueue_dl(rnti, 900, 39)
    enb.build_context(10, 39)
    api.collect_ue_stats(39, -1)
    since = enb.change_seq
    windows = {"write": Calls(), "view": Calls(), "record": Calls()}
    changes = 0
    for tti in range(40, 40 + ttis):
        for rnti in rntis[tti % 2::2]:
            windows["write"].run(enb.enqueue_dl, rnti, 900, tti)
            changes += 1
        windows["view"].run(enb.build_context, 10, tti)
        windows["record"].run(api.collect_ue_stats, tti, since)
        since = enb.change_seq
    return changes, windows


# Per settled change, CPython 3.11, exact: the writer records it through
# its entity's hook and no caller marks it on the entity's behalf; the
# eNodeB's settle hands it to every reader's dirty sets and no per-kind
# sequence stands beside them; each reader takes the RLC's one backlog
# snapshot and counts no queue itself.  The record pass fell from 11.0
# to 10.5 when it stopped visiting UEs for their channel: it visits the
# changed UEs only, and looks a UE's cell up only to rebuild a group.
SETTLED_CHANGE_CEILINGS = {"write": 9.0, "view": 5.0, "record": 10.5}


@pytest.mark.parametrize("window", sorted(SETTLED_CHANGE_CEILINGS))
def test_a_settled_change_stays_under_its_call_ceiling(window, monkeypatch):
    monkeypatch.undo()  # the eNodeB's own build_context, not the oracle
    changes, windows = calls_per_settled_change()
    assert changes == 200
    calls = windows[window]
    assert calls.total / changes <= SETTLED_CHANGE_CEILINGS[window], calls
