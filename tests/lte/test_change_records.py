"""Ownership contract of change tracking (DESIGN.md section 6).

Every per-UE entity records, through the hook it was built with, the
RNTI whose state one of its methods changed; a read-only call records
nothing.  The eNodeB settles the recorded set wherever a change sequence
or a view is read, so a change is visible to ``change_seq`` and
``collect_ue_stats`` without a ``plan`` in between, and an RNTI that
left before settling leaves no trace.
"""

import pytest

from repro.core.agent.api import AgentDataPlaneApi
from repro.lte.cell import Cell, CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.drx import DrxConfig, DrxManager
from repro.lte.mac.harq import HarqEntity, HarqPool
from repro.lte.pdcp import PdcpEntity
from repro.lte.phy.channel import FixedCqi
from repro.lte.rlc import RlcEntity
from repro.lte.rrc import ATTACH_SIGNALLING_BYTES, RA_DELAY_TTIS, RrcEntity
from repro.lte.ue import Ue

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
    cell = Cell(CellConfig(cell_id=10), hook)
    cell.add_ue(RNTI, Ue("001", FixedCqi(9)))
    cell.refresh_cqi(0, force=True)
    return cell


def _swap_channel(cell):
    cell.ues[RNTI].channel = FixedCqi(4)
    cell.refresh_cqi(1, force=True)


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
    "rrc.srb_delivered": (
        _connecting,
        lambda rrc: rrc.srb_delivered(RNTI, ATTACH_SIGNALLING_BYTES, 20)),
    "rrc.check_timeouts": (
        _attaching, lambda rrc: rrc.check_timeouts(10 ** 6)),
    "cell.refresh_cqi": (_cell, _swap_channel),
}

# (factory, call that reads the entity or leaves it as it was)
READS = {
    "rlc.buffer_bytes": (_rlc, lambda rlc: rlc.buffer_bytes()),
    "rlc.dequeue_priority(empty)": (
        lambda hook: RlcEntity(RNTI, hook),
        lambda rlc: rlc.dequeue_priority(300, 1)),
    "rlc.requeue_front(0)": (_rlc, lambda rlc: rlc.requeue_front(0, 1, 3)),
    "pdcp.tx_sn": (_pdcp, lambda pdcp: pdcp.tx_sn(3)),
    "pdcp.egress(0)": (_pdcp, lambda pdcp: pdcp.egress(3, 0)),
    "harq.pending_retx": (_nacked, lambda harq: harq.pending_retx(8)),
    "harq.free_process": (_nacked, lambda harq: harq.free_process()),
    "drx.is_awake": (_drx, lambda drx: drx.is_awake(RNTI, 5)),
    "drx.account_all": (_drx, lambda drx: drx.account_all(5)),
    "drx.note_activity(unconfigured)": (
        DrxManager, lambda drx: drx.note_activity(RNTI, 5)),
    "rrc.state_of": (_attaching, lambda rrc: rrc.state_of(RNTI)),
    "rrc.setup_due(early)": (
        _attaching, lambda rrc: rrc.setup_due(RNTI, RA_DELAY_TTIS - 1)),
    "rrc.srb_delivered(partial)": (
        _connecting, lambda rrc: rrc.srb_delivered(RNTI, 1, 20)),
    "cell.refresh_cqi(unchanged)": (
        _cell, lambda cell: cell.refresh_cqi(1, force=True)),
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


def connected_enb(cells=(10,), n_ues=2):
    enb = EnodeB(1, [CellConfig(cell_id=c) for c in cells])
    rntis = [enb.attach_ue(Ue(f"{i:03d}", FixedCqi(11)), cells[0], tti=0)
             for i in range(n_ues)]
    for t in range(40):
        enb.tick(t)
    assert all(enb.rrc.is_connected(r) for r in rntis)
    return enb, rntis


class TestSettling:
    def test_enodeb_reads_record_nothing(self):
        enb, rntis = connected_enb()
        seq = enb.change_seq
        enb.build_context(10, 40)
        enb.queue_bytes(rntis[0])
        AgentDataPlaneApi(enb).get_ue_stats(40)
        assert enb.change_seq == seq

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

    def test_a_change_dirties_every_carrier_of_the_ue(self):
        enb, (rnti, _) = connected_enb(cells=(10, 11))
        enb.activate_scell(rnti, 11, tti=40)
        for cell_id in enb.cells:
            enb.build_context(cell_id, 40)
        seq = enb.change_seq
        enb.rlc[rnti].enqueue(700, 40)
        assert enb.change_seq == seq + 1
        assert all(rnti in enb._view_cache[c].dirty for c in (10, 11))

    def test_an_rnti_gone_before_settling_leaves_no_sequence(self):
        enb, rntis = connected_enb()
        seq = enb.change_seq
        enb.enqueue_dl(rntis[0], 700, 40)
        enb.detach_ue(rntis[0])
        assert rntis[0] not in enb.ue_change_seqs()
        # The departure itself moves the sequence, once.
        assert enb.change_seq == seq + 1
