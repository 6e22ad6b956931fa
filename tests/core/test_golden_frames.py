"""Golden wire frames: the codec's bytes are pinned, not just symmetric.

``golden_frames.json`` was recorded from the hand-written codec that
preceded the schema compiler (commit 986284d), by encoding ``MESSAGES``
and ``RECORDS`` below.  A round-trip test alone would pass if encode
and decode drifted together; these fail on the first changed byte.

The seven ``StatsReply/*`` and ``UeStatsReport/*`` frames are the
exception: stats wire v2 (message id 22: group mask, ``rle`` vectors)
has no hand-written ancestor, so they were recorded from the compiled
codec when the format was introduced and checked octet by octet
against docs/PROTOCOL.md; ``test_cqi_delta_is_spelled_out`` keeps one
of them written out.  Every other frame is byte-identical to the
original recording.

To pin a new message, add the case here and its frame (hex) to the
JSON file in the same change that introduces the message.
"""

import json
from pathlib import Path

import pytest

from repro.core.protocol import codec
from repro.core.protocol.errors import RetiredMessageType
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    AbsPatternConfig,
    BearerQosConfig,
    CaCommand,
    CellConfigRep,
    CellStatsReport,
    ConfigReply,
    ConfigRequest,
    DciSpec,
    DlMacCommand,
    DrxCommand,
    EchoReply,
    EchoRequest,
    EventNotification,
    HandoverCommand,
    Header,
    Hello,
    PolicyReconfiguration,
    PrbCapConfig,
    StatsFlags,
    StatsReply,
    StatsRequest,
    SubframeTrigger,
    SyncConfig,
    UeConfigRep,
    UeStatsReport,
    UlMacCommand,
    VsfUpdate,
)
from repro.core.protocol.wire import Reader, Writer

from tests.core.schema_reference import records_of

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_frames.json")).read_text())

# One value per varint width the generated code treats differently:
# 1, 2, 3 and 4 bytes are unrolled inline, 5+ take the shared slow path,
# 10 is the cap.
V1, V2, V3, V4, V5, V10 = 0x7F, 0x3FFF, 0x1FFFFF, 0xFFFFFFF, 1 << 28, 2 ** 70 - 1

UE_TYPICAL = UeStatsReport(
    rnti=70, queues={3: 5000}, wb_cqi=12, wb_cqi_clear=14,
    subband_cqi=[12] * 9, subband_sinr_db_x10=[187, -35, 120] * 3,
    harq_states=[0, 1, 2, 0, 0, 0, 0, 0], ul_buffer_bytes=123,
    power_headroom_db=20, rlc_bytes_in=10 ** 6, rlc_bytes_out=999999,
    pdcp_tx_bytes=10 ** 6, pdcp_rx_bytes=10 ** 5, rx_bytes_total=10 ** 9,
    rrc_state=3, neighbor_cqi={20: 9})
UE_EMPTY = UeStatsReport()
# What a delta reply carries for a UE whose channel moved and nothing
# else did: one group, both subband vectors constant.
UE_CQI_DELTA = UeStatsReport(
    rnti=70, groups=int(StatsFlags.CQI), rrc_state=3, wb_cqi=12,
    wb_cqi_clear=14, subband_cqi=[12] * 9, subband_sinr_db_x10=[187] * 9,
    power_headroom_db=20)
UE_WIDE = UeStatsReport(
    rnti=V3, queues={V2: V5, 1: 0, 300: V1, V10: V10},
    wb_cqi=0, wb_cqi_clear=255,
    subband_cqi=[V1, V2, V3, V4, V5, V10, 0x80, 0x4000, 0x200000],
    subband_sinr_db_x10=[-1, -64, 63, -65, 64, -(2 ** 63), 2 ** 63,
                         2 ** 69 - 1, -(2 ** 69), 8191, -8192, 8192],
    harq_states=list(range(128)) + [127] * 72,
    ul_buffer_bytes=V4, power_headroom_db=V2, rlc_bytes_in=V5,
    rlc_bytes_out=V10, pdcp_tx_bytes=V4 + 1, pdcp_rx_bytes=0x80,
    rx_bytes_total=2 ** 64, rrc_state=255,
    neighbor_cqi={30: 1, 20: 15, 10: 7})
CELL_TYPICAL = CellStatsReport(
    cell_id=10, n_prb=50, connected_ues=18, tb_ok=41234, tb_err=12,
    dl_bytes=123456789, noise_interference_per_prb_x10=[-1050] * 50,
    dl_prb_occupancy=[1, 0] * 25, ul_prb_occupancy=[0] * 50)
CELL_WIDE = CellStatsReport(
    cell_id=V2, n_prb=200, connected_ues=V3, tb_ok=V5, tb_err=V4,
    dl_bytes=V10, noise_interference_per_prb_x10=[-3] * 130,
    dl_prb_occupancy=[1] * 200, ul_prb_occupancy=[0, 200, 1])
UE_CONFIG = UeConfigRep(
    rnti=70, imsi="001010000000070", cell_id=10,
    labels={"operator": "mno", "group": "gold", "città": "Zürich ✓"})
H = Header(agent_id=3, xid=V2 + 1, tti=V3 + 1)

RECORDS = {
    "Header/zero": Header(),
    "Header/wide": Header(agent_id=V5, xid=V10, tti=V4),
    "CellConfigRep/default": CellConfigRep(),
    "CellConfigRep/wide": CellConfigRep(
        cell_id=V2, n_prb_dl=100, n_prb_ul=V1, band=V3, antenna_ports=4,
        transmission_mode=V5),
    "UeConfigRep/no_labels": UeConfigRep(rnti=V2, imsi="", cell_id=0),
    "UeConfigRep/labels": UE_CONFIG,
    "UeStatsReport/empty": UE_EMPTY,
    "UeStatsReport/typical": UE_TYPICAL,
    "UeStatsReport/wide": UE_WIDE,
    "UeStatsReport/cqi_delta": UE_CQI_DELTA,
    "CellStatsReport/empty": CellStatsReport(),
    "CellStatsReport/typical": CELL_TYPICAL,
    "CellStatsReport/wide": CELL_WIDE,
    "DciSpec/zero": DciSpec(),
    "DciSpec/wide": DciSpec(rnti=0xFFF0, n_prb=100, cqi_used=255),
}

MESSAGES = {
    "Hello/default": Hello(),
    "Hello/caps": Hello(header=H, capabilities=["mac", "rrc", "pdcp", "",
                                                "wifi_mac ünïcode 無線"],
                        n_cells=V2),
    "EchoRequest": EchoRequest(header=Header(xid=5)),
    "EchoReply": EchoReply(header=Header(agent_id=V10, xid=V5, tti=V1)),
    "ConfigRequest/default": ConfigRequest(),
    "ConfigRequest/long": ConfigRequest(header=H, scope="ues" * 50),
    "ConfigReply/empty": ConfigReply(header=H),
    "ConfigReply/full": ConfigReply(
        header=H, enb_id=V3,
        cells=[CellConfigRep(cell_id=10, n_prb_dl=50),
               CellConfigRep(cell_id=11, n_prb_dl=100, n_prb_ul=100,
                             band=7, antenna_ports=2, transmission_mode=4)],
        ues=[UE_CONFIG, UeConfigRep(rnti=71, imsi="001", cell_id=11)]),
    "StatsRequest/default": StatsRequest(),
    "StatsRequest/periodic": StatsRequest(header=H, report_type=1,
                                          period_ttis=5, flags=0x3F),
    "StatsReply/empty_delta": StatsReply(header=H, report_type=2, full=0),
    "StatsReply/typical": StatsReply(
        header=Header(agent_id=1, xid=9, tti=99999), report_type=1, full=1,
        ue_reports=[UE_TYPICAL, UE_EMPTY, UE_WIDE],
        cell_reports=[CELL_TYPICAL, CELL_WIDE]),
    "StatsReply/many_ues": StatsReply(
        header=H, report_type=1, full=1,
        ue_reports=[UeStatsReport(rnti=70 + i, queues={3: 100 * i},
                                  wb_cqi=i % 16, subband_cqi=[i % 16] * 9,
                                  subband_sinr_db_x10=[10 * i - 700] * 9,
                                  harq_states=[i % 3] * 8,
                                  rx_bytes_total=i * 10 ** 6)
                    for i in range(130)]),
    "SubframeTrigger": SubframeTrigger(header=Header(agent_id=1, tti=1234),
                                       sfn=1023, sf=9),
    "EventNotification/default": EventNotification(),
    "EventNotification/details": EventNotification(
        header=H, event_type=6, rnti=70, cell_id=10,
        details={"vsf": "pf", "error": "ZeroDivisionError: ÷ by 0",
                 "": "empty key"}),
    "DlMacCommand/empty": DlMacCommand(header=H, cell_id=10, target_tti=V3),
    "DlMacCommand/assignments": DlMacCommand(
        header=Header(xid=77), cell_id=10, target_tti=5000,
        assignments=[DciSpec(rnti=70 + i, n_prb=1 + i % 50, cqi_used=i % 16)
                     for i in range(140)]),
    "UlMacCommand": UlMacCommand(
        header=Header(xid=3), cell_id=10, target_tti=V4,
        grants=[DciSpec(rnti=70, n_prb=20, cqi_used=9),
                DciSpec(rnti=V2 + 1, n_prb=V1 + 1, cqi_used=0)]),
    "HandoverCommand": HandoverCommand(header=H, rnti=70, source_cell=10,
                                       target_cell=V2),
    "VsfUpdate/default": VsfUpdate(),
    "VsfUpdate/blob": VsfUpdate(header=H, module="mac",
                                operation="dl_scheduling", name="pf_β",
                                blob=bytes(range(256)) * 2),
    "PolicyReconfiguration": PolicyReconfiguration(
        header=H, text="mac:\n  - vsf: dl_scheduling\n    behavior: pf\n"),
    "DrxCommand": DrxCommand(header=H, rnti=70, cycle_ttis=320,
                             on_duration_ttis=8, inactivity_ttis=V3),
    "CaCommand/on": CaCommand(header=H, rnti=70, scell_id=11, activate=True),
    "CaCommand/off": CaCommand(header=H, rnti=70, scell_id=11,
                               activate=False),
    "AbsPatternConfig/empty": AbsPatternConfig(header=H, cell_id=10),
    "AbsPatternConfig/pattern": AbsPatternConfig(
        header=H, cell_id=10, subframes=[1, 3, 5, 7]),
    "AbsPatternConfig/wide": AbsPatternConfig(
        header=H, cell_id=10, subframes=[9, V2, 3, V5]),
    "BearerQosConfig": BearerQosConfig(header=H, rnti=70, lcid=3, qci=1,
                                       gbr_kbps=1500),
    "SyncConfig/on": SyncConfig(header=Header(xid=6), enabled=True),
    "SyncConfig/off": SyncConfig(header=Header(xid=6), enabled=False),
    "PrbCapConfig/capped": PrbCapConfig(header=H, cell_id=10, capped=True,
                                        n_prb=25),
    "PrbCapConfig/restored": PrbCapConfig(header=H, cell_id=10),
}


def encode_record(record) -> bytes:
    w = Writer()
    record.encode(w)
    return w.getvalue()


def test_every_class_has_a_golden_frame():
    assert {type(m) for m in MESSAGES.values()} == set(MESSAGE_TYPES.values())
    assert ({type(r) for r in RECORDS.values()}
            == set(records_of(MESSAGE_TYPES.values())))
    assert set(GOLDEN) == set(MESSAGES) | set(RECORDS)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_message_matches_golden(name):
    message, golden = MESSAGES[name], bytes.fromhex(GOLDEN[name])
    assert codec.encode(message) == golden
    decoded = codec.decode(golden)
    assert type(decoded) is type(message)
    assert decoded == message


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_golden(name):
    record, golden = RECORDS[name], bytes.fromhex(GOLDEN[name])
    assert encode_record(record) == golden
    reader = Reader(golden)
    assert type(record).decode(reader) == record
    reader.expect_end()


def test_maps_are_sorted_on_the_wire():
    """Insertion order never reaches the wire (and 300 < V2 numerically,
    not lexically)."""
    shuffled = UeStatsReport(queues={V10: V10, 300: V1, 1: 0, V2: V5})
    ordered = UeStatsReport(queues={1: 0, 300: V1, V2: V5, V10: V10})
    assert encode_record(shuffled) == encode_record(ordered)
    labels = UeConfigRep(labels={"b": "2", "a": "1"})
    assert encode_record(labels).index(b"a") < encode_record(labels).index(b"b")


def test_cqi_delta_is_spelled_out():
    """The commonest record of a fading deployment, octet by octet as
    docs/PROTOCOL.md lays it out: 14 bytes where v1 sent about 65."""
    assert bytes.fromhex(GOLDEN["UeStatsReport/cqi_delta"]) == bytes([
        70,                 # varint rnti
        0x02,               # mask groups: CQI alone
        3,                  # byte rrc_state
        12, 14,             # byte wb_cqi, wb_cqi_clear
        9, 1, 12,           # rle<varint> subband_cqi: 9 x 12
        9, 1, 0xF6, 0x02,   # rle<svarint> subband_sinr_db_x10: 9 x 187
        20,                 # varint power_headroom_db
        0,                  # map<varint,varint> neighbor_cqi: empty
    ])


def test_stats_wire_v1_is_retired_not_reassigned():
    """A peer still sending the pre-mask ``StatsReply`` (id 8) is told
    it speaks a deprecated dialect; nothing tries to parse its frame."""
    assert StatsReply.MSG_TYPE == 22
    v1_frame = bytes([8]) + bytes.fromhex(GOLDEN["StatsReply/typical"])[1:]
    with pytest.raises(RetiredMessageType, match=r"StatsReply \(v1\)"):
        codec.decode(v1_frame)
