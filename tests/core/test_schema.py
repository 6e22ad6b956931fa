"""The schema compiler itself: strict kinds, legible output, loud misuse."""

import linecache
import sys
import traceback
from dataclasses import dataclass, field

import pytest

from repro.core.protocol import codec
from repro.core.protocol.errors import DecodeError
from repro.core.protocol.messages import (
    CaCommand,
    CellStatsReport,
    Header,
    PrbCapConfig,
    StatsReply,
    SyncConfig,
    UeStatsReport,
)
from repro.core.protocol.schema import CONT, OCTET, VARINT, compile_codec
from repro.core.protocol.wire import Writer


class TestStrictBool:
    """``bool(r.byte())`` used to accept any octet, so decode -> encode
    could change a frame; PROTOCOL.md promises strict decoders."""

    # (message with the flag set, offset of its octet from the frame end)
    FLAGS = [(CaCommand(rnti=70, scell_id=11, activate=True), -1),
             (SyncConfig(enabled=True), -1),
             (PrbCapConfig(cell_id=10, capped=True, n_prb=25), -2)]

    @pytest.mark.parametrize("message,at", FLAGS,
                             ids=lambda v: type(v).__name__)
    def test_only_zero_and_one_decode(self, message, at):
        frame = bytearray(codec.encode(message))
        assert frame[at] == 1
        for octet in range(256):
            frame[at] = octet
            if octet > 1:
                with pytest.raises(DecodeError, match="bool octet"):
                    codec.decode(bytes(frame))
                continue
            decoded = codec.decode(bytes(frame))
            assert decoded != message if octet == 0 else decoded == message
            assert codec.encode(decoded) == bytes(frame)

    def test_any_truthy_value_encodes_as_one(self):
        assert (codec.encode(SyncConfig(enabled=7))
                == codec.encode(SyncConfig(enabled=True)))


class TestGeneratedCodeIsLegible:
    def test_source_is_kept_on_the_class_and_in_linecache(self):
        filename = UeStatsReport.encode.__code__.co_filename
        assert filename == "<repro/core/protocol/schema UeStatsReport>"
        assert UeStatsReport.decode.__code__.co_filename == filename
        linecache.checkcache()  # must not evict a file that is not on disk
        assert "".join(linecache.getlines(filename)) == \
            UeStatsReport.CODEC_SOURCE
        assert "# subband_sinr_db_x10: rle<svarint>" in \
            UeStatsReport.CODEC_SOURCE

    def test_a_group_is_one_branch_on_each_side(self):
        """Five groups: five ``if mask & bit`` in encode, five in decode
        (with the defaults in the else), and the diff and the merge in
        the same file -- nothing about the partition is written twice."""
        source = UeStatsReport.CODEC_SOURCE
        encode, decode = source.split("def decode")[0], \
            source.split("def decode")[1].split("def changed_groups")[0]
        for bit in ("0x01", "0x02", "0x04", "0x08", "0x10"):
            assert encode.count(f"if mask & {bit}:") == 1
            assert decode.count(f"if f1 & {bit}:") == 1
        assert decode.count("else:\n            f3 = {}\n") == 1
        for name in ("changed_groups", "merge"):
            function = getattr(UeStatsReport, name)
            assert function.__code__.co_filename == \
                "<repro/core/protocol/schema UeStatsReport>"
            assert function.__qualname__ == f"UeStatsReport.{name}"
        assert UeStatsReport.ALL_GROUPS == 0x1F == UeStatsReport().groups

    def test_profilers_see_the_protocol_package(self):
        """ttibudget files calls by ``co_filename`` fragment; generated
        code has to stay in ``runtime.pycalls_per_tti.protocol``."""
        for cls in (Header, UeStatsReport, StatsReply):
            assert "repro/core/protocol/" in cls.decode.__code__.co_filename
            assert cls.encode.__qualname__ == f"{cls.__name__}.encode"
        assert not hasattr(Header, "merge")  # group functions: masks only

    def test_truncated_frame_traceback_shows_the_generated_line(self):
        frame = codec.encode(StatsReply(ue_reports=[UeStatsReport(rnti=70)]))
        with pytest.raises(DecodeError) as caught:
            codec.decode(frame[:-3])
        assert "truncated UeStatsReport" in str(caught.value)
        text = "".join(traceback.format_exception(caught.value))
        assert 'File "<repro/core/protocol/schema UeStatsReport>"' in text
        assert "in decode" in text
        assert "data[pos]" in text       # the line that ran off the end
        assert "IndexError" in text      # ... kept as the error's context


def builtin_calls(record) -> list:
    """The built-ins (``c_call`` events) that encoding *record* calls."""
    w = Writer()
    calls = []

    def hook(frame, event, arg):
        if event == "c_call":
            calls.append(getattr(arg, "__qualname__", repr(arg)))

    sys.setprofile(hook)
    try:
        record.encode(w)
    finally:
        sys.setprofile(None)
    return calls


def ue_record(scale: int, vector=list) -> UeStatsReport:
    """A full-group record whose varints are all one byte (scale 1),
    all three bytes (2 ** 14) or all four (2 ** 21)."""
    return UeStatsReport(
        rnti=70 * scale, rrc_state=3,
        queues={3 * scale: 100 * scale, 4 * scale: 9 * scale},
        ul_buffer_bytes=5 * scale, wb_cqi=12, wb_cqi_clear=13,
        subband_cqi=vector(v * scale for v in (9, 10, 11, 12)),
        subband_sinr_db_x10=vector(v * scale for v in (40, 3, 51)),
        power_headroom_db=20 * scale, neighbor_cqi={2 * scale: 9 * scale},
        harq_states=vector(v * scale for v in (1, 2, 3, 1, 2, 3, 1, 2)),
        rlc_bytes_in=77 * scale, rlc_bytes_out=66 * scale,
        pdcp_tx_bytes=55 * scale, pdcp_rx_bytes=44 * scale,
        rx_bytes_total=33 * scale)


def cell_record(n_prb: int) -> CellStatsReport:
    return CellStatsReport(
        cell_id=1, n_prb=n_prb, connected_ues=40, tb_ok=9000, tb_err=12,
        dl_bytes=10 ** 6, noise_interference_per_prb_x10=[-1100] * n_prb,
        dl_prb_occupancy=[1] * (n_prb // 2),
        ul_prb_occupancy=[1] * (n_prb // 3))


class TestEncodeCallBudget:
    """The generated encoders move bytes with ``buf += <bytes>``: what
    they call depends on the fields, never on how many bytes the values
    take or how long the vectors are."""

    @pytest.mark.parametrize("scale", [2 ** 14, 2 ** 21],
                             ids=["3_bytes", "4_bytes"])
    def test_a_ue_record_calls_the_same_at_any_varint_width(self, scale):
        narrow, wide = ue_record(1), ue_record(scale)
        assert len(self.encoded(wide)) > 2 * len(self.encoded(narrow))
        calls = builtin_calls(narrow)
        assert calls == builtin_calls(wide)
        assert "bytearray.append" not in calls

    def test_a_vector_below_the_bulk_range_skips_one_bound(self):
        # The bulk check of a list<svarint> tests min() first; a vector
        # that fails it never calls max(): one call fewer, never more.
        record = ue_record(2 ** 14)
        calls = builtin_calls(record)
        record.subband_sinr_db_x10 = [-x for x in
                                      record.subband_sinr_db_x10]
        assert len(builtin_calls(record)) == len(calls) - 1

    def test_a_cell_record_calls_the_same_at_6_and_100_prbs(self):
        calls = builtin_calls(cell_record(6))
        assert calls == builtin_calls(cell_record(100))
        assert "bytearray.append" not in calls

    def test_tuple_vectors_encode_as_lists_do(self):
        assert (self.encoded(ue_record(1, tuple))
                == self.encoded(ue_record(1, list)))
        assert (self.encoded(ue_record(2 ** 21, tuple))
                == self.encoded(ue_record(2 ** 21, list)))

    def test_the_tables_are_the_writer_encodings_in_under_a_mib(self):
        assert all(VARINT[v] == Writer().varint(v).getvalue()
                   for v in range(0x4000))
        assert [CONT[x] for x in range(0x80)] == [
            bytes([x | 0x80]) for x in range(0x80)]
        assert [OCTET[x] for x in range(0x100)] == [
            bytes([x]) for x in range(0x100)]
        objects = {id(o): o for table in (VARINT, CONT, OCTET)
                   for o in (table, *table)}
        assert sum(map(sys.getsizeof, objects.values())) <= 2 ** 20

    @staticmethod
    def encoded(record) -> bytes:
        w = Writer()
        record.encode(w)
        return w.getvalue()


class TestMisuseFailsAtImport:
    def test_field_missing_from_the_table(self):
        with pytest.raises(TypeError, match="does not cover"):
            @compile_codec
            @dataclass(slots=True)
            class Forgetful:
                kept: int = 0
                forgotten: int = 0
                FIELDS = (("kept", "varint"),)

    def test_unknown_kind(self):
        with pytest.raises(TypeError, match="unknown field kind 'float'"):
            @compile_codec
            @dataclass(slots=True)
            class Lossy:
                ratio: int = 0
                FIELDS = (("ratio", "float"),)

    def test_record_kind_must_be_compiled_first(self):
        with pytest.raises(TypeError, match="unknown field kind"):
            @compile_codec
            @dataclass(slots=True)
            class Early:
                later: list = None
                FIELDS = (("later", "list<NotYetDeclared>"),)

    def test_rle_is_for_scalars(self):
        with pytest.raises(TypeError, match="rle<Header> is not a vector"):
            @compile_codec
            @dataclass(slots=True)
            class Runs:
                origins: list = None
                FIELDS = (("origins", "rle<Header>"),)

    @pytest.mark.parametrize("bit", [0, 3, 0x100, -1, "QUEUES", 1.0])
    def test_unknown_group_bit(self, bit):
        with pytest.raises(TypeError, match="unknown group bit"):
            @compile_codec
            @dataclass(slots=True)
            class Odd:
                present: int = 0
                value: int = 0
                FIELDS = (("present", "mask"), ("value", "varint", bit))

    def test_groups_need_one_mask_ahead_of_them(self):
        with pytest.raises(TypeError, match="exactly one ungrouped 'mask'"):
            @compile_codec
            @dataclass(slots=True)
            class Maskless:
                value: int = 0
                FIELDS = (("value", "varint", 0x01),)
        with pytest.raises(TypeError, match="exactly one ungrouped 'mask'"):
            @compile_codec
            @dataclass(slots=True)
            class TwoMasks:
                a: int = 0
                b: int = 0
                value: int = 0
                FIELDS = (("a", "mask"), ("b", "mask"),
                          ("value", "varint", 0x01))
        with pytest.raises(TypeError, match="ahead of the mask"):
            @compile_codec
            @dataclass(slots=True)
            class Late:
                value: int = 0
                present: int = 0
                FIELDS = (("value", "varint", 0x01), ("present", "mask"))

    def test_a_group_is_contiguous(self):
        with pytest.raises(TypeError, match="must be contiguous"):
            @compile_codec
            @dataclass(slots=True)
            class Split:
                present: int = 0
                a: int = 0
                b: int = 0
                c: int = 0
                FIELDS = (("present", "mask"), ("a", "varint", 0x01),
                          ("b", "varint", 0x02), ("c", "varint", 0x01))

    def test_an_absent_field_needs_a_literal_default(self):
        with pytest.raises(TypeError, match="literal default"):
            @compile_codec
            @dataclass(slots=True)
            class Nested:
                present: int = 0
                origin: Header = field(default_factory=Header)
                FIELDS = (("present", "mask"), ("origin", "Header", 0x01))

    def test_instances_must_carry_no_dict(self):
        with pytest.raises(TypeError, match="would carry a __dict__"):
            @compile_codec
            @dataclass
            class Roomy:
                value: int = 0
                FIELDS = (("value", "varint"),)

        @dataclass
        class Base:
            value: int = 0

        with pytest.raises(TypeError, match="would carry a __dict__"):
            @compile_codec
            @dataclass(slots=True)
            class Inherits(Base):
                FIELDS = (("value", "varint"),)
