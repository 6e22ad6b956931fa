"""Property-based round-trips for every protocol message dataclass.

For each of the 20 registered message types we build random instances
(covering the full varint value range, signed lists, string maps and
nested report records -- with every group mask, and subband vectors
that are constant, nearly constant and arbitrary) and assert
``decode(encode(msg)) == msg`` and that the frame is fully consumed
(``expect_end`` holds -- trailing bytes are rejected).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol.codec import decode, encode
from repro.core.protocol.errors import DecodeError
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
    StatsReply,
    StatsRequest,
    SubframeTrigger,
    SyncConfig,
    UeConfigRep,
    UeStatsReport,
    UlMacCommand,
    VsfUpdate,
)

from tests.core.schema_reference import blank_absent_groups

# Field strategies.  UVAR spans the full 64-bit range the data plane can
# produce (byte counters accumulate); SVAR exercises the signed fields
# (SINR, noise) well past the 2^63 boundary the old zigzag broke at.
U8 = st.integers(min_value=0, max_value=255)
UVAR = st.integers(min_value=0, max_value=2 ** 64)
SVAR = st.integers(min_value=-(2 ** 64), max_value=2 ** 64)
SHORT = st.text(max_size=20)
STR_MAP = st.dictionaries(SHORT, SHORT, max_size=5)
INT_MAP = st.dictionaries(UVAR, UVAR, max_size=5)
UVAR_LIST = st.lists(UVAR, max_size=6)
SVAR_LIST = st.lists(SVAR, max_size=6)

HEADERS = st.builds(Header, agent_id=UVAR, xid=UVAR, tti=UVAR)

CELL_CONFIGS = st.builds(
    CellConfigRep, cell_id=UVAR, n_prb_dl=UVAR, n_prb_ul=UVAR, band=UVAR,
    antenna_ports=UVAR, transmission_mode=UVAR)
UE_CONFIGS = st.builds(
    UeConfigRep, rnti=UVAR, imsi=SHORT, cell_id=UVAR, labels=STR_MAP)


def runs(item):
    """Vectors for an ``rle`` field: any list, a constant one, and a
    constant one spoiled by its last element."""
    constant = st.builds(lambda x, n: [x] * n, item, st.integers(1, 13))
    return st.one_of(st.lists(item, max_size=6), constant,
                     st.builds(lambda xs, y: xs + [y], constant, item))


# A record as the wire carries it: the fields of a group its mask
# leaves out hold their defaults (that is what "absent" decodes to).
UE_STATS = st.builds(
    UeStatsReport, rnti=UVAR, groups=st.integers(0, 0x1F), queues=INT_MAP,
    wb_cqi=U8, wb_cqi_clear=U8,
    subband_cqi=runs(UVAR), subband_sinr_db_x10=runs(SVAR),
    harq_states=UVAR_LIST, ul_buffer_bytes=UVAR, power_headroom_db=UVAR,
    rlc_bytes_in=UVAR, rlc_bytes_out=UVAR, pdcp_tx_bytes=UVAR,
    pdcp_rx_bytes=UVAR, rx_bytes_total=UVAR, rrc_state=U8,
    neighbor_cqi=INT_MAP).map(blank_absent_groups)
CELL_STATS = st.builds(
    CellStatsReport, cell_id=UVAR, n_prb=UVAR, connected_ues=UVAR,
    tb_ok=UVAR, tb_err=UVAR, dl_bytes=UVAR,
    noise_interference_per_prb_x10=SVAR_LIST,
    dl_prb_occupancy=UVAR_LIST, ul_prb_occupancy=UVAR_LIST)
DCIS = st.builds(DciSpec, rnti=UVAR, n_prb=UVAR, cqi_used=U8)

MESSAGE_STRATEGIES = {
    Hello: st.builds(Hello, header=HEADERS,
                     capabilities=st.lists(SHORT, max_size=4), n_cells=UVAR),
    EchoRequest: st.builds(EchoRequest, header=HEADERS),
    EchoReply: st.builds(EchoReply, header=HEADERS),
    ConfigRequest: st.builds(ConfigRequest, header=HEADERS, scope=SHORT),
    ConfigReply: st.builds(ConfigReply, header=HEADERS, enb_id=UVAR,
                           cells=st.lists(CELL_CONFIGS, max_size=3),
                           ues=st.lists(UE_CONFIGS, max_size=3)),
    PrbCapConfig: st.builds(PrbCapConfig, header=HEADERS, cell_id=UVAR,
                            capped=st.booleans(), n_prb=UVAR),
    StatsRequest: st.builds(StatsRequest, header=HEADERS, report_type=UVAR,
                            period_ttis=UVAR, flags=UVAR),
    StatsReply: st.builds(StatsReply, header=HEADERS, report_type=U8,
                          full=st.integers(min_value=0, max_value=1),
                          ue_reports=st.lists(UE_STATS, max_size=3),
                          cell_reports=st.lists(CELL_STATS, max_size=2)),
    SubframeTrigger: st.builds(SubframeTrigger, header=HEADERS, sfn=UVAR,
                               sf=U8),
    EventNotification: st.builds(EventNotification, header=HEADERS,
                                 event_type=U8, rnti=UVAR, cell_id=UVAR,
                                 details=STR_MAP),
    DlMacCommand: st.builds(DlMacCommand, header=HEADERS, cell_id=UVAR,
                            target_tti=UVAR,
                            assignments=st.lists(DCIS, max_size=4)),
    UlMacCommand: st.builds(UlMacCommand, header=HEADERS, cell_id=UVAR,
                            target_tti=UVAR,
                            grants=st.lists(DCIS, max_size=4)),
    HandoverCommand: st.builds(HandoverCommand, header=HEADERS, rnti=UVAR,
                               source_cell=UVAR, target_cell=UVAR),
    VsfUpdate: st.builds(VsfUpdate, header=HEADERS, module=SHORT,
                         operation=SHORT, name=SHORT,
                         blob=st.binary(max_size=40)),
    PolicyReconfiguration: st.builds(PolicyReconfiguration, header=HEADERS,
                                     text=SHORT),
    DrxCommand: st.builds(DrxCommand, header=HEADERS, rnti=UVAR,
                          cycle_ttis=UVAR, on_duration_ttis=UVAR,
                          inactivity_ttis=UVAR),
    CaCommand: st.builds(CaCommand, header=HEADERS, rnti=UVAR,
                         scell_id=UVAR, activate=st.booleans()),
    AbsPatternConfig: st.builds(AbsPatternConfig, header=HEADERS,
                                cell_id=UVAR, subframes=UVAR_LIST),
    BearerQosConfig: st.builds(BearerQosConfig, header=HEADERS, rnti=UVAR,
                               lcid=UVAR, qci=UVAR, gbr_kbps=UVAR),
    SyncConfig: st.builds(SyncConfig, header=HEADERS,
                          enabled=st.booleans()),
}

ALL_CLASSES = sorted(MESSAGE_TYPES.values(), key=lambda c: c.MSG_TYPE)


def test_every_registered_type_has_a_strategy():
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrip(cls, data):
    msg = data.draw(MESSAGE_STRATEGIES[cls])
    decoded = decode(encode(msg))
    assert type(decoded) is cls
    assert decoded == msg


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
def test_trailing_bytes_rejected(cls):
    """decode() must consume the whole frame (expect_end holds)."""
    frame = encode(cls())
    with pytest.raises(DecodeError):
        decode(frame + b"\x00")
