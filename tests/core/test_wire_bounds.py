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
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol.errors import DecodeError, EncodeError
from repro.core.protocol.wire import Reader, Writer

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
