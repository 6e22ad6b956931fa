"""Encode/decode symmetry at the varint range boundaries.

Regression tests for three wire-layer bugs:

* ``Writer.svarint`` used the 64-bit zigzag ``(v << 1) ^ (v >> 63)``,
  which silently mis-encodes Python ints below -2^63 (no overflow error
  fires on unbounded ints -- the value just decodes to something else).
* ``Writer.varint`` happily emitted encodings longer than 10 bytes that
  ``Reader.varint`` then rejected -- a round-trip asymmetry where the
  *receiver* reported the sender's bug.
* ``Reader.string`` leaked ``UnicodeDecodeError`` (not the module's
  typed ``DecodeError``) on invalid UTF-8 payload bytes.

These pin the primitives.  The same bounds at every position of every
compiled message (field, list element, map key, map value) are checked
in ``test_schema_differential.py``.

The last two classes cover what stats wire v2 lets a peer declare: a
group mask and the count, flag and coding of an ``rle`` vector.  A
constant-coded vector is the one place a decoder builds something from
a declared count, so that count is bounded before anything is built,
and every choice a sender has is strict so a frame has one spelling.
"""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import codec
from repro.core.protocol.errors import DecodeError, EncodeError
from repro.core.protocol.messages import StatsFlags, StatsReply, UeStatsReport
from repro.core.protocol.wire import MAX_RLE_COUNT, Reader, Writer

VARINT_MAX = 2 ** 70 - 1        # largest value a 10-byte varint carries
SVARINT_MIN = -(2 ** 69)
SVARINT_MAX = 2 ** 69 - 1


class TestSvarintWidthSafety:
    @pytest.mark.parametrize("value", [
        -2 ** 63 - 1,           # the silent-corruption case pre-fix
        -2 ** 63, 2 ** 63, -2 ** 64, 2 ** 64 + 17,
        SVARINT_MIN, SVARINT_MAX, 0, -1, 1,
    ])
    def test_boundary_roundtrip(self, value):
        w = Writer()
        w.svarint(value)
        assert Reader(w.getvalue()).svarint() == value

    @given(st.integers(min_value=SVARINT_MIN, max_value=SVARINT_MAX))
    def test_full_range_roundtrip(self, value):
        w = Writer()
        w.svarint(value)
        r = Reader(w.getvalue())
        assert r.svarint() == value
        r.expect_end()

    @pytest.mark.parametrize("value", [
        SVARINT_MIN - 1, SVARINT_MAX + 1, -2 ** 80, 2 ** 80])
    def test_out_of_range_raises_encode_error(self, value):
        with pytest.raises(EncodeError):
            Writer().svarint(value)

    def test_decoder_range_mirrors_encoder(self):
        """Every decodable zigzag value is inside the encodable range."""
        # The largest raw varints a Reader accepts map exactly onto the
        # svarint boundaries -- decode cannot produce a value encode
        # would reject.
        for raw, expected in [(2 ** 70 - 1, SVARINT_MIN),
                              (2 ** 70 - 2, SVARINT_MAX)]:
            w = Writer()
            w.varint(raw)
            assert Reader(w.getvalue()).svarint() == expected


class TestVarintEncodeBound:
    def test_max_value_roundtrips_in_ten_bytes(self):
        w = Writer()
        w.varint(VARINT_MAX)
        assert len(w) == 10
        assert Reader(w.getvalue()).varint() == VARINT_MAX

    @pytest.mark.parametrize("value", [VARINT_MAX + 1, 2 ** 80])
    def test_over_limit_raises_encode_error(self, value):
        # Pre-fix this emitted an 11+ byte encoding the Reader rejected.
        with pytest.raises(EncodeError):
            Writer().varint(value)

    @given(st.integers(min_value=0, max_value=VARINT_MAX))
    def test_everything_encodable_is_decodable(self, value):
        w = Writer()
        w.varint(value)
        r = Reader(w.getvalue())
        assert r.varint() == value
        r.expect_end()


class TestStringDecodeErrors:
    def test_invalid_utf8_raises_decode_error(self):
        w = Writer()
        w.blob(b"\xff\xfe\x80")  # length-prefixed, but not UTF-8
        with pytest.raises(DecodeError):
            Reader(w.getvalue()).string()

    @given(st.binary(min_size=1, max_size=50))
    def test_arbitrary_blob_as_string_never_leaks(self, payload):
        w = Writer()
        w.blob(payload)
        try:
            Reader(w.getvalue()).string()
        except DecodeError:
            pass  # typed failure is the contract; any other raise fails


class TestMaskAndRlePrimitives:
    def test_the_bound_covers_the_largest_real_vector(self):
        # One value per PRB of a 20 MHz carrier, and every count the
        # generated code writes without calling rle_count.
        assert MAX_RLE_COUNT >= 110 and MAX_RLE_COUNT >= 0x7F

    @pytest.mark.parametrize("count", [0, 1, 0x7F, 0x80, MAX_RLE_COUNT])
    def test_counts_up_to_the_bound_roundtrip(self, count):
        w = Writer()
        w.rle_count(count)
        r = Reader(w.getvalue())
        assert r.rle_count() == count
        r.expect_end()

    @pytest.mark.parametrize("count", [MAX_RLE_COUNT + 1, 2 ** 40,
                                       VARINT_MAX])
    def test_counts_past_the_bound_fail_on_both_sides(self, count):
        with pytest.raises(EncodeError, match="bound"):
            Writer().rle_count(count)
        w = Writer()
        w.varint(count)
        with pytest.raises(DecodeError, match="bound"):
            Reader(w.getvalue()).rle_count()

    def test_mask_accepts_exactly_the_declared_bits(self):
        for value in range(256):
            ok = not value & ~0x1F
            w = Writer()
            if ok:
                w.mask(value, 0x1F)
                assert w.getvalue() == bytes([value])
                assert Reader(bytes([value])).mask(0x1F) == value
                continue
            with pytest.raises(EncodeError, match="outside the declared"):
                w.mask(value, 0x1F)
            with pytest.raises(DecodeError, match="outside the declared"):
                Reader(bytes([value])).mask(0x1F)
        for value in (-1, 0x100, 0x11F):
            with pytest.raises(EncodeError):
                Writer().mask(value, 0x1F)
        with pytest.raises(DecodeError, match="truncated"):
            Reader(b"").mask(0x1F)


def cqi_record(vector: bytes, mask: int = int(StatsFlags.CQI)) -> bytes:
    """A wire ``UeStatsReport`` carrying the CQI group, with *vector*
    written where ``subband_cqi`` goes and the rest well-formed."""
    return (bytes([70, mask, 3, 12, 14]) + vector
            + bytes([0, 0])      # subband_sinr_db_x10: no elements, plain
            + bytes([20, 0]))    # power_headroom_db, no neighbours


def decode_record(data: bytes) -> UeStatsReport:
    r = Reader(data)
    record = UeStatsReport.decode(r)
    r.expect_end()
    return record


class TestStatsRecordDecodeSafety:
    def test_the_well_formed_record_decodes(self):
        record = decode_record(cqi_record(bytes([9, 1, 12])))
        assert record.subband_cqi == [12] * 9
        assert record.groups == StatsFlags.CQI and record.queues == {}
        plain = decode_record(cqi_record(bytes([3, 0, 1, 2, 3])))
        assert plain.subband_cqi == [1, 2, 3]

    @pytest.mark.parametrize("count", [MAX_RLE_COUNT + 1, 2 ** 40])
    @pytest.mark.parametrize("flag", [0, 1])
    def test_a_huge_count_in_a_tiny_frame_allocates_nothing(self, count,
                                                            flag):
        w = Writer()
        w.varint(count).byte(flag).varint(12)
        frame = cqi_record(w.getvalue())
        assert len(frame) < 24
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="bound"):
                decode_record(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024     # not 8 bytes x the declared count

    def test_the_largest_count_is_accepted_and_is_what_it_says(self):
        w = Writer()
        w.varint(MAX_RLE_COUNT).byte(1).varint(12)
        record = decode_record(cqi_record(w.getvalue()))
        assert record.subband_cqi == [12] * MAX_RLE_COUNT

    def test_only_flags_zero_and_one_decode(self):
        for flag in range(2, 256):
            with pytest.raises(DecodeError, match="rle flag octet"):
                decode_record(cqi_record(bytes([9, flag, 12])))

    def test_unknown_mask_bits_do_not_decode(self):
        for mask in range(0x20, 0x100):
            with pytest.raises(DecodeError, match="outside the declared"):
                decode_record(cqi_record(bytes([9, 1, 12]), mask=mask))

    @pytest.mark.parametrize("vector", [
        bytes([1, 0, 12]),              # one element is a constant vector
        bytes([3, 0, 12, 12, 12]),
        bytes([3, 0, 0x80, 0x01, 0x80, 0x01, 0x80, 0x01]),  # off the bulk path
    ])
    def test_a_plain_coded_constant_vector_is_not_canonical(self, vector):
        with pytest.raises(DecodeError, match="plain-coded"):
            decode_record(cqi_record(vector))

    def test_a_constant_vector_has_at_least_one_element(self):
        with pytest.raises(DecodeError, match="no elements"):
            decode_record(cqi_record(bytes([0, 1, 12])))
        assert decode_record(cqi_record(bytes([0, 0]))).subband_cqi == []

    def test_every_strict_prefix_of_a_delta_record_is_truncated(self):
        whole = cqi_record(bytes([9, 1, 12]))
        for cut in range(len(whole)):
            with pytest.raises(DecodeError, match="truncated"):
                UeStatsReport.decode(Reader(whole[:cut]))

    def test_what_a_sender_cannot_say_it_cannot_encode(self):
        """Every frame a Writer produces is one a Reader accepts."""
        for record in (UeStatsReport(groups=0x20),
                       UeStatsReport(groups=0x3F),
                       UeStatsReport(subband_cqi=[1] * (MAX_RLE_COUNT + 1))):
            with pytest.raises(EncodeError):
                codec.encode(StatsReply(ue_reports=[record]))
        # ... and the failed encodes leave no residue in the next frame.
        assert codec.decode(codec.encode(StatsReply())) == StatsReply()
