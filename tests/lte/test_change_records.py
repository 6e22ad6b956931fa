"""Ownership contract of change tracking (DESIGN.md section 6).

Every per-UE entity records, through the hook it was built with, the
RNTI whose state one of its methods changed; a read-only call records
nothing.  On an eNodeB the hook is the record set of the entity's kind
(``CHANGE_KINDS``), and a change lands in that set alone.  The eNodeB
settles the sets wherever a change sequence or a view is read -- one
sequence step per UE however many kinds recorded it, and per kind the
RNTI added to the dirty set of every reader registered for that kind
(``settle_into``: the view caches, the agent's record pass) -- so a
change is visible to ``change_seq`` and ``collect_ue_stats`` without a
``plan`` in between, and an RNTI that left before settling leaves no
trace.  A view re-reads, on every carrier of the UE, only the fields
the recorded kinds feed.
"""

from dataclasses import replace

import pytest

from repro.core.agent.api import KIND_GROUPS, AgentDataPlaneApi
from repro.lte.cell import Cell, CellConfig
from repro.lte.enodeb import CHANGE_KINDS, EnodeB
from repro.lte.mac.drx import DrxConfig, DrxManager
from repro.lte.mac.harq import HarqEntity, HarqPool
from repro.lte.mac.qos import QosProfile
from repro.lte.pdcp import PdcpEntity
from repro.lte.constants import SRS_PERIOD_TTIS
from repro.lte.phy.channel import (
    FixedCqi, FixedSinr, InterferenceChannel, SquareWaveCqi)
from repro.lte.phy.cqi import cqi_to_sinr_floor
from repro.lte.rlc import RlcEntity
from repro.lte.rrc import (
    ATTACH_SIGNALLING_BYTES, RA_DELAY_TTIS, RrcEntity, RrcState)
from repro.lte.ue import Ue
from repro.lte.view_cache import REFRESHER_OF_KIND
from tests.sim.context_oracle import UE_VIEW_FIELDS

RNTI = 70

# Each factory builds an entity on *hook* and brings it into the state
# the call needs; what the set-up records is discarded.


def _rlc(hook):
    rlc = RlcEntity(RNTI, hook)
    rlc.enqueue(500, 0)
    return rlc


def _pdcp(hook):
    return PdcpEntity(RNTI, hook)


def _harq(hook):
    return HarqEntity(RNTI, hook)


def _start(harq):
    return harq.start(pid=None, tb_bits=8000, payload_bytes=1000,
                      cqi_used=10, n_prb=10, lcid=3, tti=0)


def _sent(hook):
    harq = HarqEntity(RNTI, hook)
    _start(harq)
    return harq


def _nacked(hook):
    harq = _sent(hook)
    harq.feedback(0, False)
    return harq


def _drx(hook):
    drx = DrxManager(hook)
    drx.configure(RNTI, DrxConfig())
    return drx


def _attaching(hook):
    rrc = RrcEntity(hook)
    rrc.start_attach(RNTI, 0)
    return rrc


def _connecting(hook):
    rrc = _attaching(hook)
    rrc.setup_due(RNTI, RA_DELAY_TTIS)
    return rrc


def _cell(hook):
    # One hook for both of the cell's kinds; the eNodeB rows below
    # tell them apart.  A moving channel: the UE is on the SRS grid.
    cell = Cell(CellConfig(cell_id=10), hook, hook)
    cell.add_ue(RNTI, Ue("001", SquareWaveCqi(9, 4, period_ttis=1000)), 0)
    return cell


def _swap_channel(cell):
    cell.ues[RNTI].channel = FixedCqi(4)
    cell.refresh_cqi(SRS_PERIOD_TTIS)  # its next SRS instant


# (factory, call that changes the entity's state)
CHANGES = {
    "rlc.enqueue": (_rlc, lambda rlc: rlc.enqueue(100, 1)),
    "rlc.dequeue_priority": (
        _rlc, lambda rlc: rlc.dequeue_priority(300, 1)),
    "rlc.requeue_front": (_rlc, lambda rlc: rlc.requeue_front(100, 1, 3)),
    "pdcp.ingress": (_pdcp, lambda pdcp: pdcp.ingress(3, 100)),
    "pdcp.egress": (_pdcp, lambda pdcp: pdcp.egress(3, 100)),
    "harq.start": (_harq, _start),
    "harq.retransmit": (_nacked, lambda harq: harq.retransmit(0, 8)),
    "harq.feedback": (_sent, lambda harq: harq.feedback(0, True)),
    "drx.configure": (DrxManager,
                      lambda drx: drx.configure(RNTI, DrxConfig())),
    "drx.configure(None)": (_drx, lambda drx: drx.configure(RNTI, None)),
    "drx.note_activity": (_drx, lambda drx: drx.note_activity(RNTI, 5)),
    "rrc.start_attach": (RrcEntity, lambda rrc: rrc.start_attach(RNTI, 0)),
    "rrc.setup_due": (
        _attaching, lambda rrc: rrc.setup_due(RNTI, RA_DELAY_TTIS)),
    "rrc.due_setups": (
        _attaching, lambda rrc: rrc.due_setups(RA_DELAY_TTIS)),
    "rrc.srb_delivered": (
        _connecting,
        lambda rrc: rrc.srb_delivered(RNTI, ATTACH_SIGNALLING_BYTES, 20)),
    "rrc.check_timeouts": (
        _attaching, lambda rrc: rrc.check_timeouts(10 ** 6)),
    "cell.refresh_cqi": (_cell, _swap_channel),
}

# (factory, call that reads the entity or leaves it as it was)
READS = {
    "rlc.backlog": (_rlc, lambda rlc: rlc.backlog()),
    "rlc.sizes(absent bearer)": (
        lambda hook: RlcEntity(RNTI, hook), lambda rlc: rlc.sizes().get(7)),
    "rlc.dequeue_priority(empty)": (
        lambda hook: RlcEntity(RNTI, hook),
        lambda rlc: rlc.dequeue_priority(300, 1)),
    "rlc.requeue_front(0)": (_rlc, lambda rlc: rlc.requeue_front(0, 1, 3)),
    "pdcp.egress(0)": (_pdcp, lambda pdcp: pdcp.egress(3, 0)),
    "harq.pending_retx": (_nacked, lambda harq: harq.pending_retx(8)),
    "harq.in_flight": (_nacked, lambda harq: harq.in_flight()),
    "drx.is_awake": (_drx, lambda drx: drx.is_awake(RNTI, 5)),
    "drx.account_all": (_drx, lambda drx: drx.account_all(5)),
    "drx.note_activity(unconfigured)": (
        DrxManager, lambda drx: drx.note_activity(RNTI, 5)),
    "rrc.state_of": (_attaching, lambda rrc: rrc.state_of(RNTI)),
    "rrc.setup_due(early)": (
        _attaching, lambda rrc: rrc.setup_due(RNTI, RA_DELAY_TTIS - 1)),
    "rrc.due_setups(early)": (
        _attaching, lambda rrc: rrc.due_setups(RA_DELAY_TTIS - 1)),
    "rrc.srb_delivered(partial)": (
        _connecting, lambda rrc: rrc.srb_delivered(RNTI, 1, 20)),
    "cell.refresh_cqi(unchanged)": (
        _cell, lambda cell: cell.refresh_cqi(SRS_PERIOD_TTIS)),
    "cell.scheduling_cqi": (_cell, lambda cell: cell.scheduling_cqi(RNTI, 1)),
}


def records_of(make, call):
    """The RNTIs *call* records on an entity *make* built and set up."""
    recorded = []
    entity = make(recorded.append)
    recorded.clear()
    call(entity)
    return recorded


@pytest.mark.parametrize("name", CHANGES)
def test_a_state_change_records_its_rnti(name):
    recorded = records_of(*CHANGES[name])
    assert recorded and set(recorded) == {RNTI}


@pytest.mark.parametrize("name", READS)
def test_a_read_records_nothing(name):
    assert records_of(*READS[name]) == []


def test_a_pool_hands_its_hook_to_every_entity():
    assert records_of(HarqPool, lambda pool: _start(pool.entity(RNTI))) \
        == [RNTI]


def _attach(enb, rnti):
    """A second UE on *enb*, attaching; returns its RNTI."""
    return enb.attach_ue(Ue("009", FixedCqi(11)), 10, tti=40)


def _connecting(enb, rnti):
    rnti = _attach(enb, rnti)
    enb.rrc.setup_due(rnti, 40 + RA_DELAY_TTIS)
    return rnti


def _harq_of(enb, rnti):
    return enb.harq[10].entity(rnti)


def _queued(enb, rnti):
    enb.rlc[rnti].enqueue(500, 41)
    return rnti


def _harq_sent(enb, rnti):
    _start(_harq_of(enb, rnti))
    return rnti


def _harq_nacked(enb, rnti):
    _harq_of(enb, _harq_sent(enb, rnti)).feedback(0, False)
    return rnti


def _drx_on(enb, rnti):
    enb.drx.configure(rnti, DrxConfig())
    return rnti


# The same calls through a connected eNodeB's own entities, and the
# eNodeB's own records: name -> (kind, set-up returning the RNTI to act
# on or None, call).
ENB_CHANGES = {
    "rlc.enqueue": (
        "rlc", None, lambda enb, r: enb.rlc[r].enqueue(100, 41)),
    "rlc.dequeue_priority": (
        "rlc", _queued, lambda enb, r: enb.rlc[r].dequeue_priority(300, 41)),
    "rlc.requeue_front": (
        "rlc", None, lambda enb, r: enb.rlc[r].requeue_front(100, 41, 3)),
    "pdcp.ingress": ("pdcp", None, lambda enb, r: enb.pdcp[r].ingress(3, 100)),
    "pdcp.egress": ("pdcp", None, lambda enb, r: enb.pdcp[r].egress(3, 100)),
    "harq.start": ("harq", None, lambda enb, r: _start(_harq_of(enb, r))),
    "harq.retransmit": (
        "harq", _harq_nacked,
        lambda enb, r: _harq_of(enb, r).retransmit(0, 48)),
    "harq.feedback": (
        "harq", _harq_sent, lambda enb, r: _harq_of(enb, r).feedback(0, True)),
    "drx.configure": (
        "view", None, lambda enb, r: enb.drx.configure(r, DrxConfig())),
    "drx.configure(None)": (
        "view", _drx_on, lambda enb, r: enb.drx.configure(r, None)),
    "drx.note_activity": (
        "view", _drx_on, lambda enb, r: enb.drx.note_activity(r, 45)),
    "rrc.start_attach": (
        "rrc", lambda enb, r: 99, lambda enb, r: enb.rrc.start_attach(r, 40)),
    "rrc.setup_due": (
        "rrc", _attach,
        lambda enb, r: enb.rrc.setup_due(r, 40 + RA_DELAY_TTIS)),
    "rrc.due_setups": (
        "rrc", _attach, lambda enb, r: enb.rrc.due_setups(40 + RA_DELAY_TTIS)),
    "rrc.srb_delivered": (
        "rrc", _connecting,
        lambda enb, r: enb.rrc.srb_delivered(r, ATTACH_SIGNALLING_BYTES, 55)),
    "rrc.check_timeouts": (
        "rrc", _attach, lambda enb, r: enb.rrc.check_timeouts(10 ** 6)),
    "cell.refresh_cqi": (
        "cqi", None, lambda enb, r: _swap_channel_of(
            enb.cells[10], r, _CQI_ONLY_CHANNEL)),
    "cell.refresh_cqi(sinr)": (
        "measurement", None, lambda enb, r: _swap_channel_of(
            enb.cells[10], r, _SINR_ONLY_CHANNEL)),
    # What the eNodeB owns itself.
    "enb.notify_ul": ("ul_buffer", None, lambda enb, r: enb.notify_ul(r, 9, 41)),
    "enb.configure_bearer": (
        "view", None,
        lambda enb, r: enb.configure_bearer(r, 3, QosProfile(qci=9))),
}


# Replacements for connected_enb's FixedCqi(11) that the UE's next
# observation tells apart from it by CQI alone (the reported SINR is the
# interfered one, the CQI without an interferer the clear one) and by
# reported SINR alone.
_CQI_ONLY_CHANNEL = InterferenceChannel(cqi_to_sinr_floor(14) + 0.1,
                                        cqi_to_sinr_floor(11) + 0.1)
_SINR_ONLY_CHANNEL = FixedSinr(cqi_to_sinr_floor(11) + 0.5)


def _swap_channel_of(cell, rnti, channel):
    """Replace *rnti*'s channel (parked since its attach at TTI 0) and
    run its cell's pass at TTI 41, which observes it (due at 40)."""
    cell.ues[rnti].channel = channel
    cell.refresh_cqi(41)


def test_every_entity_call_has_an_enodeb_row():
    assert set(CHANGES) <= set(ENB_CHANGES)
    assert {kind for kind, _, _ in ENB_CHANGES.values()} \
        == set(CHANGE_KINDS) - {"membership"}


@pytest.mark.parametrize("name", ENB_CHANGES)
def test_a_change_lands_in_its_kinds_record_and_no_other(name):
    kind, set_up, call = ENB_CHANGES[name]
    enb, (rnti, _) = connected_enb()
    if set_up is not None:
        rnti = set_up(enb, rnti)
    assert enb.change_seq  # settles what the set-up recorded
    call(enb, rnti)
    assert [k for k, recorded in zip(CHANGE_KINDS, enb._recorded)
            if recorded] == [kind]
    assert enb._recorded[CHANGE_KINDS.index(kind)] == {rnti}


def _channel_swap_observed(enb, rnti, channel=FixedCqi(4)):
    """Replace the UE's channel and run both carriers' passes at TTI 50,
    the first SRS instant of both grids since (PCell 40, SCell 50)."""
    enb.ue(rnti).channel = channel
    for cell in enb.cells.values():
        cell.refresh_cqi(50)


# kind -> (one change of that kind, the view fields it re-reads)
KIND_REREADS = {
    "harq": (lambda enb, r: _start(_harq_of(enb, r)), set()),
    "pdcp": (lambda enb, r: enb.pdcp[r].ingress(3, 100), set()),
    "rlc": (lambda enb, r: enb.rlc[r].enqueue(700, 41),
            {"queues", "queue_bytes"}),
    "cqi": (_channel_swap_observed, {"cqi"}),
    "measurement": (lambda enb, r: _channel_swap_observed(
        enb, r, _SINR_ONLY_CHANNEL), set()),
    "ul_buffer": (lambda enb, r: enb.notify_ul(r, 9, 41),
                  {"ul_buffer_bytes"}),
    "view": (lambda enb, r: enb.configure_bearer(r, 3, QosProfile(qci=9)),
             {"queues", "queue_bytes", "ul_buffer_bytes"}),
}


def test_every_kind_has_a_refresher_entry():
    assert set(REFRESHER_OF_KIND) == set(CHANGE_KINDS)
    assert set(REFRESHER_OF_KIND.values()) - {None} \
        == set(EnodeB(1)._view_cache[10].dirty)
    assert {REFRESHER_OF_KIND[kind]
            for kind in ("membership", "rrc", "view")} == {"full"}


def connected_enb(cells=(10,), n_ues=2):
    enb = EnodeB(1, [CellConfig(cell_id=c) for c in cells])
    rntis = [enb.attach_ue(Ue(f"{i:03d}", FixedCqi(11)), cells[0], tti=0)
             for i in range(n_ues)]
    for t in range(40):
        enb.tick(t)
    assert all(enb.rrc.state_of(r) is RrcState.CONNECTED for r in rntis)
    return enb, rntis


def reader(enb, served=None):
    """Register one dirty set per kind with *enb*; return them."""
    moved = {kind: set() for kind in CHANGE_KINDS}
    enb.settle_into(moved, served)
    return moved


def registered(enb):
    """Every ``(kind, id(dirty set))`` registered with *enb*, sorted."""
    return sorted((kind, id(dirty))
                  for kind, (_, into) in zip(CHANGE_KINDS, enb._settle_into)
                  for dirty, _ in into)


def registered_sets(enb):
    return [dirty for _, into in enb._settle_into for dirty, _ in into]


class TestSettling:
    def test_enodeb_reads_record_nothing(self):
        enb, rntis = connected_enb()
        seq = enb.change_seq
        enb.build_context(10, 40)
        enb.rlc[rntis[0]].backlog()
        AgentDataPlaneApi(enb).get_ue_stats(40)
        assert enb.change_seq == seq

    def test_reading_an_absent_bearer_creates_none(self):
        enb, (rnti, _) = connected_enb()
        rlc = enb.rlc[rnti]
        before = dict(rlc.sizes())
        seq = enb.change_seq
        assert rlc.sizes().get(7, 0) == 0
        assert rlc.sizes().get(-4, 0) == 0
        assert rlc.dequeue(500, 40, 5) == 0
        assert rlc.sizes() == rlc.queues.sizes() == before
        assert enb.change_seq == seq
        fresh = RlcEntity(RNTI, set().add)
        assert fresh.sizes().get(7, 0) == 0
        assert fresh.sizes() == fresh.queues.sizes() == {}

    def test_a_change_after_the_last_build_is_read_without_a_plan(self):
        enb, rntis = connected_enb()
        api = AgentDataPlaneApi(enb)
        api.collect_ue_stats(40, -1)  # the first pass observes channels
        enb.build_context(10, 40)
        since = enb.change_seq
        enb.rlc[rntis[1]].enqueue(700, 40)  # the RLC alone records it
        assert [rec.rnti for _, rec in api.collect_ue_stats(40, since)] \
            == [rntis[1]]
        enb.pdcp[rntis[0]].ingress(3, 100)
        assert enb.change_seq == since + 2
        assert enb.ue_change_seqs()[rntis[0]] == since + 2

    @pytest.mark.parametrize("kind", KIND_REREADS)
    def test_a_change_re_reads_its_kinds_fields(self, kind):
        """A UE on PCell 10 and SCell 11 has its queue and uplink buffer
        changed behind the view cache's back, then one change of *kind*
        recorded: a field re-read on a carrier shows the news, any
        other keeps its cached value."""
        enb, (rnti, _) = connected_enb(cells=(10, 11))
        enb.activate_scell(rnti, 11, tti=40)
        for cell_id in enb.cells:
            enb.build_context(cell_id, 40)
        caches = enb._view_cache
        before = {c: replace(caches[c]._views[rnti]) for c in caches}
        enb.rlc[rnti].queues.queue(3).push(300, 40)
        enb.rlc[rnti]._backlog = None  # a write nobody records
        enb.ue(rnti).ul_backlog_bytes += 500
        seq = enb.change_seq
        change, reread = KIND_REREADS[kind]
        change(enb, rnti)
        assert enb.change_seq == seq + 1  # settled
        for cell_id, cache in caches.items():
            cache.build(41)  # not build_context: the oracle would object
            view = cache._views[rnti]
            assert {name for name in UE_VIEW_FIELDS
                    if getattr(view, name) != getattr(before[cell_id], name)
                    } == reread, cell_id

    def test_an_rnti_gone_before_settling_leaves_no_sequence(self):
        enb, rntis = connected_enb()
        moved = reader(enb)
        enb.rlc[rntis[0]].enqueue(100, 40)
        seq = enb.change_seq  # settled: the reader holds it
        assert rntis[0] in moved["rlc"]
        enb.enqueue_dl(rntis[0], 700, 40)
        enb.detach_ue(rntis[0])
        assert rntis[0] not in enb.ue_change_seqs()
        assert not any(rntis[0] in dirty for dirty in moved.values())
        assert not any(rntis[0] in dirty
                       for cache in enb._view_cache.values()
                       for dirty in cache.dirty.values())
        # The departure itself moves the sequence, once.
        assert enb.change_seq == seq + 1

    def test_one_step_per_ue_however_many_kinds_recorded_it(self):
        enb, (first, second) = connected_enb()
        enb.ue_change_seqs()  # a sequence reader from here on
        seq = enb.change_seq
        moved = reader(enb)
        enb.enqueue_dl(first, 700, 40)            # pdcp, rlc
        _start(enb.harq[10].entity(first))        # harq
        enb.notify_ul(first, 100, 40)             # ul_buffer
        enb.pdcp[second].ingress(3, 100)          # pdcp
        assert enb.change_seq == seq + 2
        seqs = enb.ue_change_seqs()
        assert sorted(seqs.values())[-2:] == [seq + 1, seq + 2]
        assert moved == {kind: {
            "pdcp": {first, second}, "rlc": {first}, "harq": {first},
            "ul_buffer": {first}}.get(kind, set()) for kind in CHANGE_KINDS}

    def test_kind_values_do_not_wait_for_a_reader(self):
        """A settle fills a reader's sets whether or not the reader
        looks, and only from its registration on: an untouched kind is
        not counted as moved, and an earlier change is not replayed."""
        enb, (first, second) = connected_enb()
        early = reader(enb)
        enb.rlc[first].enqueue(700, 40)
        assert enb.change_seq  # settled; the reader never looked
        late = reader(enb)
        enb.pdcp[second].ingress(3, 100)
        assert enb.change_seq
        assert early == {kind: {"rlc": {first}, "pdcp": {second}}.get(
            kind, set()) for kind in CHANGE_KINDS}
        assert late == {kind: {"pdcp": {second}}.get(kind, set())
                        for kind in CHANGE_KINDS}

    def test_a_reader_serves_only_its_rntis(self):
        enb, (first, second) = connected_enb()
        moved = reader(enb, served={second})
        enb.rlc[first].enqueue(700, 40)
        enb.rlc[second].enqueue(700, 40)
        assert enb.change_seq
        assert moved["rlc"] == {second}

    def test_reader_sets_hold_only_attached_rntis_under_churn(self):
        enb, (stays, _) = connected_enb()
        api = AgentDataPlaneApi(enb)
        api.collect_ue_stats(40, -1)  # registers the record pass's sets
        since = enb.change_seq
        for i in range(1000):
            rnti = enb.attach_ue(Ue(f"{i:04d}", FixedCqi(9)), tti=40)
            enb.enqueue_dl(rnti, 100, 40)
            enb.rlc[stays].enqueue(100, 40)
            assert enb.change_seq  # settled into every reader's sets
            enb.detach_ue(rnti)
        attached = set(enb.rntis())
        for dirty in registered_sets(enb):
            assert dirty <= attached
        assert [rec.rnti for _, rec in api.collect_ue_stats(40, since)] \
            == [stays]

    def test_an_agentless_enodeb_registers_only_its_view_caches(self):
        enb, _ = connected_enb(cells=(10, 11))
        AgentDataPlaneApi(enb).get_ue_stats(40)  # reads, registers nothing
        views = sorted(
            (kind, id(cache.dirty[name]))
            for cache in enb._view_cache.values()
            for kind, name in REFRESHER_OF_KIND.items() if name)
        assert registered(enb) == views
        api = AgentDataPlaneApi(enb)
        api.collect_ue_stats(40, -1)
        assert len(registered(enb)) - len(views) == sum(
            1 for bits in KIND_GROUPS.values() if bits)

    def test_the_sequence_map_is_in_value_order(self):
        """So the UEs changed since a value are a tail of it."""
        enb, rntis = connected_enb(n_ues=4)
        enb.ue_change_seqs()  # a sequence reader from here on
        for rnti in (rntis[2], rntis[0], rntis[3]):
            enb.rlc[rnti].enqueue(100, 40)
            assert enb.change_seq
        seqs = enb.ue_change_seqs()
        assert list(seqs.values()) == sorted(seqs.values())
        assert list(seqs)[-3:] == [rntis[2], rntis[0], rntis[3]]
        enb.pdcp[rntis[2]].ingress(3, 100)
        assert enb.change_seq
        assert list(seqs)[-1] == rntis[2]
        assert list(seqs.values()) == sorted(seqs.values())

    def test_the_sequence_map_is_kept_from_its_first_read(self):
        """An eNodeB nobody asks keeps no map, only the count; the first
        read enters every attached UE at the value of the moment, so a
        delta since an earlier value names all of them (too many, never
        too few), and one since that value names only later changes."""
        enb, rntis = connected_enb(n_ues=3)
        before = enb.change_seq
        enb.rlc[rntis[1]].enqueue(100, 40)
        enb.pdcp[rntis[2]].ingress(3, 100)
        assert enb.change_seq == before + 2  # counted all the same
        assert enb._ue_seq is None
        first = enb.change_seq
        seqs = enb.ue_change_seqs()
        assert dict(seqs) == dict.fromkeys(rntis, first)
        assert [r for r, seq in seqs.items() if seq > before] == rntis
        enb.rlc[rntis[0]].enqueue(100, 41)
        assert enb.change_seq == first + 1
        assert [r for r, seq in seqs.items() if seq > first] == [rntis[0]]
