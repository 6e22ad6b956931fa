"""Wire records carry no ``__dict__``, however they are built.

Every class ``compile_codec`` emits a codec for is a slotted dataclass,
and each way a record comes into being -- its constructor, the
generated ``decode`` and ``merge``, the agent's ``_build_record`` and
the reports manager's ``_carrying`` stamp -- fills every slot with one
store.  A slot left unset would raise ``AttributeError`` on read, so
reading every field back is the check that none was missed.
"""

import gc
from dataclasses import fields

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.reports import _carrying
from repro.core.protocol import messages
from repro.core.protocol.messages import StatsFlags, UeStatsReport
from repro.core.protocol.wire import Reader, Writer
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue

COMPILED = sorted(
    (cls for cls in vars(messages).values()
     if isinstance(cls, type) and "CODEC_SOURCE" in vars(cls)),
    key=lambda cls: cls.__name__)


def read_back(obj) -> dict:
    """Every field of *obj* by name, after checking it has no
    ``__dict__`` (an unset slot raises here)."""
    assert not hasattr(obj, "__dict__"), type(obj).__name__
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def roundtrip(obj):
    w = Writer()
    obj.encode(w)
    r = Reader(w.getvalue())
    decoded = type(obj).decode(r)
    r.expect_end()
    return decoded


def whole_record(rnti=70) -> UeStatsReport:
    return UeStatsReport(
        rnti=rnti, rrc_state=2, queues={3: 1500, 4: 20}, ul_buffer_bytes=7,
        wb_cqi=11, wb_cqi_clear=12, subband_cqi=[11] * 9,
        subband_sinr_db_x10=[150, 152] + [151] * 7, power_headroom_db=20,
        neighbor_cqi={2: 5}, harq_states=[0, 1, 2, 0, 0, 0, 0, 0],
        rlc_bytes_in=9000, rlc_bytes_out=8000, pdcp_tx_bytes=8100,
        pdcp_rx_bytes=10, rx_bytes_total=7900)


def tracked_objects(root) -> list:
    """The GC-tracked objects *root* reaches, itself included, leaving
    out classes (shared, not part of the record)."""
    out, stack, seen = [], [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def agent_with_ues(n: int = 3) -> FlexRanAgent:
    enb = EnodeB(1)
    agent = FlexRanAgent(1, enb)
    for i in range(n):
        enb.attach_ue(Ue(f"00{i}", FixedCqi(9)), tti=0)
    return agent


def test_every_compiled_class_is_slotted():
    assert len(COMPILED) > 20
    for cls in COMPILED:
        assert cls.__dictoffset__ == 0, cls.__name__
    assert messages.FlexRanMessage.__dictoffset__ == 0


@pytest.mark.parametrize("cls", COMPILED, ids=lambda cls: cls.__name__)
def test_constructor_and_decode_fill_every_slot(cls):
    built = cls()
    assert read_back(roundtrip(built)) == read_back(built)


def test_merge_fills_every_slot():
    stored = whole_record()
    for groups in (0, int(StatsFlags.QUEUES),
                   int(StatsFlags.CQI | StatsFlags.PDCP)):
        delta = roundtrip(UeStatsReport(rnti=70, groups=groups, rrc_state=3))
        merged = UeStatsReport.merge(stored, delta)
        state = read_back(merged)
        assert state["groups"] == stored.groups | groups
        assert state["rrc_state"] == 3
        assert (state["queues"] is delta.queues) == bool(
            groups & StatsFlags.QUEUES)


def test_build_record_fills_every_slot_whole_and_from_prev():
    agent = agent_with_ues()
    for record in agent.api.get_ue_stats(0):
        assert read_back(record)["groups"] == UeStatsReport.ALL_GROUPS
    first = dict(agent.api.collect_ue_stats(0, -1))
    agent.enb.enqueue_dl(agent.enb.rntis()[0], 500, tti=1)
    second = agent.api.collect_ue_stats(1, max(first))
    assert second, "the enqueue moved no UE"
    now = {record.rnti: record for record in agent.api.get_ue_stats(1)}
    for _, record in second:
        assert read_back(record) == read_back(now[record.rnti])


def test_carrying_fills_every_slot():
    record = whole_record()
    stamped = _carrying(record, int(StatsFlags.HARQ))
    assert stamped is not record
    assert read_back(stamped) == {**read_back(record),
                                  "groups": int(StatsFlags.HARQ)}


def test_a_decoded_whole_record_is_four_tracked_objects():
    """The instance and its three lists; its maps of ints are not
    tracked, and there is no ``__dict__`` to add a fifth."""
    decoded = roundtrip(whole_record())
    tracked = tracked_objects(decoded)
    assert len(tracked) <= 4, [type(o).__name__ for o in tracked]
    assert sorted(type(o).__name__ for o in tracked) == [
        "UeStatsReport", "list", "list", "list"]
