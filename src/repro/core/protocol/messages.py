"""FlexRAN protocol messages.

The protocol carries the five interaction classes of the FlexRAN Agent
API (Table 1 of the paper): configuration, statistics, commands,
event triggers and control delegation, plus the master--agent subframe
synchronization used by centralized real-time scheduling.

Each message class declares:

* ``MSG_TYPE`` -- the one-byte wire discriminator;
* ``CATEGORY`` -- the accounting category used for the signaling
  breakdowns of Fig. 7 (agent management / sync / stats reporting /
  master commands);
* ``FIELDS`` -- its payload's wire layout, one ``(name, kind)`` pair
  per dataclass field in wire order (plus the group bit, for a field
  that travels only when its group does), from which
  :func:`~repro.core.protocol.schema.compile_codec` emits the class's
  ``encode`` / ``decode`` at import.  Nested records declare ``FIELDS``
  the same way.

All messages share a :class:`Header` (agent id, transaction id, TTI
stamp), the one field :class:`FlexRanMessage` declares.  See
:mod:`repro.core.protocol.codec` for framing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List

from repro.core.protocol.schema import compile_codec


class Category:
    """Signaling-accounting categories (the Fig. 7 series names)."""

    AGENT_MANAGEMENT = "agent_management"
    SYNC = "master_agent_sync"
    STATS = "stats_reporting"
    COMMANDS = "master_commands"


class ReportType(enum.IntEnum):
    """Statistics report flavours (Section 4.3.1, Reports & Events)."""

    ONE_OFF = 0
    PERIODIC = 1
    TRIGGERED = 2
    CANCEL = 3


class StatsFlags(enum.IntFlag):
    """Which statistic groups a request subscribes to."""

    QUEUES = 0x01
    CQI = 0x02
    HARQ = 0x04
    RLC = 0x08
    PDCP = 0x10
    CELL = 0x20
    FULL = 0x3F


class EventType(enum.IntEnum):
    """Event-trigger kinds (Table 1)."""

    UE_ATTACH = 0
    ATTACH_FAILED = 1
    RANDOM_ACCESS = 2
    SCHEDULING_REQUEST = 3
    HANDOVER_COMPLETE = 4
    TTI_START = 5
    VSF_FAULT = 6


@compile_codec
@dataclass
class Header:
    """Common message header."""

    agent_id: int = 0
    xid: int = 0
    tti: int = 0

    FIELDS = (("agent_id", "varint"), ("xid", "varint"), ("tti", "varint"))


@dataclass
class FlexRanMessage:
    """Base class of every protocol message."""

    MSG_TYPE: ClassVar[int] = 0
    CATEGORY: ClassVar[str] = Category.AGENT_MANAGEMENT

    header: Header = field(default_factory=Header)

    FIELDS = (("header", "Header"),)


# -- agent management ---------------------------------------------------


@compile_codec
@dataclass
class Hello(FlexRanMessage):
    """Agent registration announcing its capabilities."""

    MSG_TYPE: ClassVar[int] = 1

    capabilities: List[str] = field(default_factory=list)
    n_cells: int = 1

    FIELDS = (("capabilities", "list<string>"), ("n_cells", "varint"))


@compile_codec
@dataclass
class EchoRequest(FlexRanMessage):
    """Keepalive probe from the master."""

    MSG_TYPE: ClassVar[int] = 2


@compile_codec
@dataclass
class EchoReply(FlexRanMessage):
    """Keepalive answer from the agent."""

    MSG_TYPE: ClassVar[int] = 3


@compile_codec
@dataclass
class ConfigRequest(FlexRanMessage):
    """Synchronous configuration read (Table 1, Configuration)."""

    MSG_TYPE: ClassVar[int] = 4

    scope: str = "enb"  # "enb" | "cells" | "ues"

    FIELDS = (("scope", "string"),)


@compile_codec
@dataclass
class CellConfigRep:
    """Cell configuration record inside a ConfigReply."""

    cell_id: int = 0
    n_prb_dl: int = 50
    n_prb_ul: int = 50
    band: int = 5
    antenna_ports: int = 1
    transmission_mode: int = 1

    FIELDS = (("cell_id", "varint"), ("n_prb_dl", "varint"),
              ("n_prb_ul", "varint"), ("band", "varint"),
              ("antenna_ports", "varint"), ("transmission_mode", "varint"))


@compile_codec
@dataclass
class UeConfigRep:
    """UE configuration record inside a ConfigReply."""

    rnti: int = 0
    imsi: str = ""
    cell_id: int = 0
    labels: Dict[str, str] = field(default_factory=dict)

    FIELDS = (("rnti", "varint"), ("imsi", "string"), ("cell_id", "varint"),
              ("labels", "map<string,string>"))


@compile_codec
@dataclass
class ConfigReply(FlexRanMessage):
    """Full eNodeB configuration snapshot."""

    MSG_TYPE: ClassVar[int] = 5

    enb_id: int = 0
    cells: List[CellConfigRep] = field(default_factory=list)
    ues: List[UeConfigRep] = field(default_factory=list)

    FIELDS = (("enb_id", "varint"), ("cells", "list<CellConfigRep>"),
              ("ues", "list<UeConfigRep>"))


@compile_codec
@dataclass
class StatsRequest(FlexRanMessage):
    """Asynchronous statistics subscription (one-off/periodic/triggered)."""

    MSG_TYPE: ClassVar[int] = 7

    report_type: int = int(ReportType.ONE_OFF)
    period_ttis: int = 1
    flags: int = int(StatsFlags.FULL)

    FIELDS = (("report_type", "varint"), ("period_ttis", "varint"),
              ("flags", "varint"))


# -- statistics reporting -----------------------------------------------


@compile_codec
@dataclass
class UeStatsReport:
    """Per-UE statistics record (the bulk of agent-to-master traffic).

    Mirrors the statistics the paper's agent streams at TTI granularity:
    buffer status per logical channel, wideband and per-subband CQI,
    HARQ process states, RLC/PDCP counters and power headroom.

    The third column of ``FIELDS`` files each statistic under the
    :class:`StatsFlags` group a subscription selects it by; ``groups``
    says which of them this record carries.  On the wire an absent
    group costs nothing; decoded, its fields hold their defaults, and
    the master's RIB merges the present groups into the record it
    stores.  A record built whole (the default) carries all five.
    """

    rnti: int = 0
    groups: int = int(StatsFlags.FULL & ~StatsFlags.CELL)
    rrc_state: int = 0
    queues: Dict[int, int] = field(default_factory=dict)
    ul_buffer_bytes: int = 0
    wb_cqi: int = 0
    wb_cqi_clear: int = 0
    subband_cqi: List[int] = field(default_factory=list)
    subband_sinr_db_x10: List[int] = field(default_factory=list)
    power_headroom_db: int = 0
    neighbor_cqi: Dict[int, int] = field(default_factory=dict)
    harq_states: List[int] = field(default_factory=list)
    rlc_bytes_in: int = 0
    rlc_bytes_out: int = 0
    pdcp_tx_bytes: int = 0
    pdcp_rx_bytes: int = 0
    rx_bytes_total: int = 0

    FIELDS = (
        ("rnti", "varint"), ("groups", "mask"), ("rrc_state", "byte"),
        ("queues", "map<varint,varint>", StatsFlags.QUEUES),
        ("ul_buffer_bytes", "varint", StatsFlags.QUEUES),
        ("wb_cqi", "byte", StatsFlags.CQI),
        ("wb_cqi_clear", "byte", StatsFlags.CQI),
        ("subband_cqi", "rle<varint>", StatsFlags.CQI),
        ("subband_sinr_db_x10", "rle<svarint>", StatsFlags.CQI),
        ("power_headroom_db", "varint", StatsFlags.CQI),
        ("neighbor_cqi", "map<varint,varint>", StatsFlags.CQI),
        ("harq_states", "list<varint>", StatsFlags.HARQ),
        ("rlc_bytes_in", "varint", StatsFlags.RLC),
        ("rlc_bytes_out", "varint", StatsFlags.RLC),
        ("pdcp_tx_bytes", "varint", StatsFlags.PDCP),
        ("pdcp_rx_bytes", "varint", StatsFlags.PDCP),
        ("rx_bytes_total", "varint", StatsFlags.PDCP))


@compile_codec
@dataclass
class CellStatsReport:
    """Per-cell aggregate statistics record."""

    cell_id: int = 0
    n_prb: int = 0
    connected_ues: int = 0
    tb_ok: int = 0
    tb_err: int = 0
    dl_bytes: int = 0
    noise_interference_per_prb_x10: List[int] = field(default_factory=list)
    # Cell-wide air-interface occupancy, reported per PRB each TTI as
    # OAI's agent does; fixed-size content that amortizes over UEs and
    # contributes to Fig. 7a's sublinear growth.
    dl_prb_occupancy: List[int] = field(default_factory=list)
    ul_prb_occupancy: List[int] = field(default_factory=list)

    FIELDS = (("cell_id", "varint"), ("n_prb", "varint"),
              ("connected_ues", "varint"), ("tb_ok", "varint"),
              ("tb_err", "varint"), ("dl_bytes", "varint"),
              ("noise_interference_per_prb_x10", "list<svarint>"),
              ("dl_prb_occupancy", "list<varint>"),
              ("ul_prb_occupancy", "list<varint>"))


@compile_codec
@dataclass
class StatsReply(FlexRanMessage):
    """Aggregated statistics report from an agent.

    One message carries *all* UE reports of an eNodeB ("aggregation of
    relevant information in the FlexRAN protocol messages, e.g. list of
    UE status reports"), which is what makes agent-to-master signaling
    grow sublinearly with UE count (Fig. 7a).
    """

    MSG_TYPE: ClassVar[int] = 22
    CATEGORY: ClassVar[str] = Category.STATS

    report_type: int = int(ReportType.PERIODIC)
    #: 1 when ``ue_reports`` covers every attached UE with every
    #: subscribed group; 0 for a delta reply that carries only the UEs,
    #: and of each only the groups, that changed since the
    #: subscription's previous reply.  Cell reports are always complete
    #: either way.
    full: int = 1
    ue_reports: List[UeStatsReport] = field(default_factory=list)
    cell_reports: List[CellStatsReport] = field(default_factory=list)

    FIELDS = (("report_type", "byte"), ("full", "byte"),
              ("ue_reports", "list<UeStatsReport>"),
              ("cell_reports", "list<CellStatsReport>"))


# -- synchronization ----------------------------------------------------


@compile_codec
@dataclass
class SubframeTrigger(FlexRanMessage):
    """Per-TTI subframe indication keeping the master in sync.

    The master's view of the agent subframe "is always outdated by an
    offset equal to half the RTT delay" (Section 5.3) -- exactly what
    this message's propagation through the emulated link produces.
    """

    MSG_TYPE: ClassVar[int] = 9
    CATEGORY: ClassVar[str] = Category.SYNC

    sfn: int = 0
    sf: int = 0

    FIELDS = (("sfn", "varint"), ("sf", "byte"))


# -- event triggers -----------------------------------------------------


@compile_codec
@dataclass
class EventNotification(FlexRanMessage):
    """Asynchronous data-plane event pushed to the master (Table 1)."""

    MSG_TYPE: ClassVar[int] = 10

    event_type: int = int(EventType.UE_ATTACH)
    rnti: int = 0
    cell_id: int = 0
    details: Dict[str, str] = field(default_factory=dict)

    FIELDS = (("event_type", "byte"), ("rnti", "varint"),
              ("cell_id", "varint"), ("details", "map<string,string>"))


# -- commands -----------------------------------------------------------


@compile_codec
@dataclass
class DciSpec:
    """Wire form of one downlink scheduling decision."""

    rnti: int = 0
    n_prb: int = 0
    cqi_used: int = 0

    FIELDS = (("rnti", "varint"), ("n_prb", "varint"), ("cqi_used", "byte"))


@compile_codec
@dataclass
class DlMacCommand(FlexRanMessage):
    """Centralized scheduling decision for one cell and target TTI."""

    MSG_TYPE: ClassVar[int] = 11
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = 0
    target_tti: int = 0
    assignments: List[DciSpec] = field(default_factory=list)

    FIELDS = (("cell_id", "varint"), ("target_tti", "varint"),
              ("assignments", "list<DciSpec>"))


@compile_codec
@dataclass
class UlMacCommand(FlexRanMessage):
    """Centralized uplink-grant decision for one cell and target TTI."""

    MSG_TYPE: ClassVar[int] = 17
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = 0
    target_tti: int = 0
    grants: List[DciSpec] = field(default_factory=list)

    FIELDS = (("cell_id", "varint"), ("target_tti", "varint"),
              ("grants", "list<DciSpec>"))


@compile_codec
@dataclass
class HandoverCommand(FlexRanMessage):
    """Mobility control decision: move a UE to another cell."""

    MSG_TYPE: ClassVar[int] = 12
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = 0
    source_cell: int = 0
    target_cell: int = 0

    FIELDS = (("rnti", "varint"), ("source_cell", "varint"),
              ("target_cell", "varint"))


# -- control delegation -------------------------------------------------


@compile_codec
@dataclass
class VsfUpdate(FlexRanMessage):
    """Push new VSF code to the agent cache (Section 4.3.1).

    ``blob`` stands in for the compiled shared library of the paper's
    implementation: on this platform it is a serialized constructor
    spec the agent's loader instantiates (see
    :mod:`repro.core.delegation`), padded to a representative size.
    """

    MSG_TYPE: ClassVar[int] = 13

    module: str = ""
    operation: str = ""
    name: str = ""
    blob: bytes = b""

    FIELDS = (("module", "string"), ("operation", "string"),
              ("name", "string"), ("blob", "blob"))


@compile_codec
@dataclass
class PolicyReconfiguration(FlexRanMessage):
    """Swap VSFs / retune their parameters, in YAML (Fig. 3)."""

    MSG_TYPE: ClassVar[int] = 14

    text: str = ""

    FIELDS = (("text", "string"),)


@compile_codec
@dataclass
class DrxCommand(FlexRanMessage):
    """DRX control decision for one UE (Table 1, Commands).

    ``cycle_ttis == 0`` disables DRX.
    """

    MSG_TYPE: ClassVar[int] = 15
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = 0
    cycle_ttis: int = 0
    on_duration_ttis: int = 0
    inactivity_ttis: int = 0

    FIELDS = (("rnti", "varint"), ("cycle_ttis", "varint"),
              ("on_duration_ttis", "varint"), ("inactivity_ttis", "varint"))


@compile_codec
@dataclass
class CaCommand(FlexRanMessage):
    """(De)activate a secondary component carrier for one UE."""

    MSG_TYPE: ClassVar[int] = 16
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = 0
    scell_id: int = 0
    activate: bool = True

    FIELDS = (("rnti", "varint"), ("scell_id", "varint"), ("activate", "bool"))


# -- typed configuration commands ---------------------------------------
#
# These replaced the stringly-typed SetConfig side-channels (comma-joined
# ABS patterns, "rnti:lcid:qci:gbr" packed strings, "on"/"off" flags):
# each configuration intent is its own message with typed fields, so
# malformed values fail at encode time rather than deep in an agent
# handler.  SetConfig itself is gone; its wire id lives in
# RETIRED_MESSAGE_TYPES below so stale frames fail loudly.


@compile_codec
@dataclass
class AbsPatternConfig(FlexRanMessage):
    """Install an eICIC Almost-Blank Subframe pattern on one cell."""

    MSG_TYPE: ClassVar[int] = 18
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = 0
    subframes: List[int] = field(default_factory=list)

    FIELDS = (("cell_id", "varint"), ("subframes", "list<varint>"))


@compile_codec
@dataclass
class BearerQosConfig(FlexRanMessage):
    """Provision a QoS profile on one radio bearer.

    ``gbr_kbps == 0`` means non-GBR (matching the QCI table's resource
    types); a GBR QCI requires a positive rate.
    """

    MSG_TYPE: ClassVar[int] = 19
    CATEGORY: ClassVar[str] = Category.COMMANDS

    rnti: int = 0
    lcid: int = 0
    qci: int = 9
    gbr_kbps: int = 0

    FIELDS = (("rnti", "varint"), ("lcid", "varint"), ("qci", "varint"),
              ("gbr_kbps", "varint"))


@compile_codec
@dataclass
class SyncConfig(FlexRanMessage):
    """Turn per-TTI subframe synchronization on or off at an agent."""

    MSG_TYPE: ClassVar[int] = 20
    CATEGORY: ClassVar[str] = Category.COMMANDS

    enabled: bool = True

    FIELDS = (("enabled", "bool"),)


@compile_codec
@dataclass
class PrbCapConfig(FlexRanMessage):
    """Cap (or restore) a cell's usable downlink carrier width.

    The typed replacement for the last string-keyed ``SetConfig`` use
    (``dl_prb_cap``, the LSA spectrum knob): ``capped == False``
    restores the full carrier; otherwise ``n_prb`` PRBs stay usable.
    ``n_prb == 0`` with ``capped`` set fully vacates the shared band.
    """

    MSG_TYPE: ClassVar[int] = 21
    CATEGORY: ClassVar[str] = Category.COMMANDS

    cell_id: int = 0
    capped: bool = False
    n_prb: int = 0

    FIELDS = (("cell_id", "varint"), ("capped", "bool"), ("n_prb", "varint"))


MESSAGE_TYPES = {
    cls.MSG_TYPE: cls for cls in (
        Hello, EchoRequest, EchoReply, ConfigRequest, ConfigReply,
        StatsRequest, StatsReply, SubframeTrigger, EventNotification,
        DlMacCommand, HandoverCommand, VsfUpdate, PolicyReconfiguration,
        DrxCommand, CaCommand, UlMacCommand, AbsPatternConfig,
        BearerQosConfig, SyncConfig, PrbCapConfig)
}
"""Wire discriminator -> message class registry."""

RETIRED_MESSAGE_TYPES = {
    6: "SetConfig",
    8: "StatsReply (v1)",
}
"""Wire discriminators this protocol used to assign and has removed.

Decoding one of these raises
:class:`~repro.core.protocol.errors.RetiredMessageType` naming the old
message, so a frame from a pre-removal controller fails with a clear
upgrade hint instead of a generic unknown-type error.  The ids are
never reassigned.
"""
