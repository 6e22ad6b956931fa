"""Tests for the wire primitives (varints, strings) and for the
collections the schema compiler lays out on top of them."""

from dataclasses import dataclass, field
from typing import Dict, List

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol.errors import DecodeError, EncodeError
from repro.core.protocol.schema import compile_codec
from repro.core.protocol.wire import Reader, Writer


@compile_codec
@dataclass(slots=True)
class Collections:
    """One field per collection kind the protocol uses."""

    varints: List[int] = field(default_factory=list)
    svarints: List[int] = field(default_factory=list)
    int_map: Dict[int, int] = field(default_factory=dict)
    str_map: Dict[str, str] = field(default_factory=dict)

    FIELDS = (("varints", "list<varint>"), ("svarints", "list<svarint>"),
              ("int_map", "map<varint,varint>"),
              ("str_map", "map<string,string>"))


def roundtrip(record):
    w = Writer()
    record.encode(w)
    r = Reader(w.getvalue())
    decoded = type(record).decode(r)
    r.expect_end()
    return decoded


class TestVarint:
    @pytest.mark.parametrize("value,size", [
        (0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (2 ** 32, 5)])
    def test_known_sizes(self, value, size):
        w = Writer()
        w.varint(value)
        assert len(w.getvalue()) == size

    def test_negative_rejected(self):
        with pytest.raises(EncodeError):
            Writer().varint(-1)

    @given(st.integers(min_value=0, max_value=2 ** 63))
    def test_roundtrip(self, value):
        w = Writer()
        w.varint(value)
        assert Reader(w.getvalue()).varint() == value

    def test_truncated_raises(self):
        w = Writer()
        w.varint(300)
        with pytest.raises(DecodeError):
            Reader(w.getvalue()[:1]).varint()

    def test_overlong_raises(self):
        with pytest.raises(DecodeError):
            Reader(b"\x80" * 11).varint()


class TestSvarint:
    @given(st.integers(min_value=-2 ** 60, max_value=2 ** 60))
    def test_roundtrip(self, value):
        w = Writer()
        w.svarint(value)
        assert Reader(w.getvalue()).svarint() == value

    def test_small_negatives_compact(self):
        w = Writer()
        w.svarint(-1)
        assert len(w.getvalue()) == 1


class TestCompound:
    @given(st.text(max_size=200))
    def test_string_roundtrip(self, text):
        w = Writer()
        w.string(text)
        assert Reader(w.getvalue()).string() == text

    @given(st.binary(max_size=500))
    def test_blob_roundtrip(self, data):
        w = Writer()
        w.blob(data)
        assert Reader(w.getvalue()).blob() == data

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=50))
    def test_varint_list_roundtrip(self, values):
        assert roundtrip(Collections(varints=values)).varints == values

    @given(st.lists(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
                    max_size=50))
    def test_svarint_list_roundtrip(self, values):
        assert roundtrip(Collections(svarints=values)).svarints == values

    @given(st.dictionaries(st.integers(min_value=0, max_value=2 ** 30),
                           st.integers(min_value=0, max_value=2 ** 30),
                           max_size=30))
    def test_int_map_roundtrip(self, mapping):
        assert roundtrip(Collections(int_map=mapping)).int_map == mapping

    @given(st.dictionaries(st.text(max_size=20), st.text(max_size=20),
                           max_size=20))
    def test_str_map_roundtrip(self, mapping):
        assert roundtrip(Collections(str_map=mapping)).str_map == mapping

    def test_sequential_fields(self):
        w = Writer()
        w.varint(7).string("hello").byte(255).blob(b"xy")
        r = Reader(w.getvalue())
        assert r.varint() == 7
        assert r.string() == "hello"
        assert r.byte() == 255
        assert r.blob() == b"xy"
        r.expect_end()

    def test_expect_end_fails_on_trailing(self):
        r = Reader(b"\x00\x00")
        r.byte()
        with pytest.raises(DecodeError):
            r.expect_end()

    def test_truncated_blob(self):
        w = Writer()
        w.blob(b"hello")
        with pytest.raises(DecodeError):
            Reader(w.getvalue()[:3]).blob()

    def test_byte_out_of_range(self):
        with pytest.raises(EncodeError):
            Writer().byte(256)

    def test_reset_reuses_cleanly(self):
        w = Writer()
        w.varint(300).string("abc")
        first = w.getvalue()
        w.reset().varint(300).string("abc")
        assert w.getvalue() == first
