"""Fuzzing: hostile inputs must fail cleanly, never crash or corrupt.

The agent and master parse bytes from the network (codec) and text
from policy messages; a malformed input must raise the module's typed
error, not an arbitrary exception, and must never be silently
mis-parsed.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.delegation import VsfLoadError, load_vsf
from repro.core.policy import PolicyDocument, PolicyParseError, parse
from repro.core.protocol import codec
from repro.core.protocol.errors import DecodeError
from repro.core.protocol.messages import MESSAGE_TYPES, StatsReply
from repro.core.protocol.schema import (
    LIST_KIND,
    MAP_KIND,
    RLE_KIND,
    wire_fields,
)
from repro.core.protocol.wire import Reader, Writer

from tests.core import schema_reference as reference
from tests.core.test_golden_frames import MESSAGES as GOLDEN_MESSAGES

def counted(kind):
    return LIST_KIND.match(kind) or MAP_KIND.match(kind) \
        or RLE_KIND.match(kind)


WITH_COLLECTIONS = [
    cls for cls in (*reference.RECORDS, *MESSAGE_TYPES.values())
    if any(counted(kind) for _, kind, _ in wire_fields(cls))]


def assert_every_strict_prefix_fails(frame: bytes) -> None:
    for cut in range(1, len(frame)):
        try:
            codec.decode(frame[:cut])
        except DecodeError:
            continue
        # A strict prefix that still decodes must never happen: the
        # frame has no trailing-garbage ambiguity by construction.
        pytest.fail(f"prefix of length {cut} decoded successfully")


class TestCodecFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    @example(b"\x16")           # valid type byte, truncated header
    @example(b"\x01\x00\x00")   # Hello with truncated payload
    def test_decode_never_crashes(self, data):
        """Random bytes either decode to a message or raise DecodeError."""
        try:
            message = codec.decode(data)
        except DecodeError:
            return
        assert type(message) in MESSAGE_TYPES.values()
        # Anything that decodes must re-encode (possibly not byte-
        # identical -- dict ordering is canonicalized -- but must
        # round-trip to an equal message).
        assert codec.decode(codec.encode(message)) == message

    @given(st.binary(max_size=60), st.integers(0, 3))
    @settings(max_examples=400)
    @example(b"\x00\x00\x00", 1)                  # a UE with no group
    @example(b"\x46\x02\x03\x0c\x0e\x09\x01\x0c\x09\x01\x12"
             b"\x14\x00", 1)                      # a CQI-only delta
    def test_stats_payloads_reencode_to_the_same_bytes(self, body, n_ues):
        """Random bytes behind a valid frame head, so they reach the
        record decoder as masks, ``rle`` counts and flags from outside.
        What is accepted round-trips, and its own encoding is never
        longer than the frame it came from: the only slack a decoder
        tolerates is a padded varint or an unsorted map, never a second
        spelling of a mask, a flag or a run."""
        frame = (bytes([StatsReply.MSG_TYPE, 1, 2, 3, 1, 0, n_ues])
                 + body + (b"\x00" if n_ues else b""))
        try:
            message = codec.decode(frame)
        except DecodeError:
            return
        assert isinstance(message, StatsReply)
        again = codec.encode(message)
        assert codec.decode(again) == message
        assert len(again) <= len(frame)
        if not any(octet & 0x80 for octet in frame):  # no varint to pad
            assert sorted(again) == sorted(frame)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_truncation_of_valid_frames_fails_cleanly(self, payload):
        from repro.core.protocol.messages import Header, VsfUpdate
        assert_every_strict_prefix_fails(codec.encode(VsfUpdate(
            header=Header(agent_id=1), module="mac", operation="dl",
            name="x", blob=payload)))

    @pytest.mark.parametrize("name", sorted(GOLDEN_MESSAGES))
    def test_truncation_of_every_message_fails_cleanly(self, name):
        """The generated decoders bound-check by catching ``IndexError``
        once per decode: it must never escape as such, whichever field,
        list, map or nested record the frame ends in."""
        assert_every_strict_prefix_fails(
            codec.encode(GOLDEN_MESSAGES[name]))

    @pytest.mark.parametrize("cls", WITH_COLLECTIONS,
                             ids=lambda c: c.__name__)
    def test_absurd_element_count_fails_promptly(self, cls):
        """A count of 2^40 in front of a few bytes is a truncated frame,
        not a request for a terabyte: nothing is sized by the declared
        count, so decode fails as soon as the bytes run out."""
        for name, kind, _ in wire_fields(cls):
            if not counted(kind):
                continue
            w = Writer()
            for before, before_kind, _ in wire_fields(cls):
                if before == name:
                    break
                reference.put(w, cls, before_kind, getattr(cls(), before))
            w.varint(2 ** 40)
            for tail in (b"", b"\x01" * 64, b"\xff" * 64):
                with pytest.raises(DecodeError):
                    cls.decode(Reader(w.getvalue() + tail))


class TestPolicyFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=300)
    def test_parse_never_crashes(self, text):
        try:
            parse(text)
        except PolicyParseError:
            pass

    @given(st.text(max_size=300))
    @settings(max_examples=200)
    def test_policy_document_never_crashes(self, text):
        try:
            PolicyDocument.from_text(text)
        except PolicyParseError:
            pass

    @given(st.text(alphabet="abc:-\n  #'\"", max_size=120))
    @settings(max_examples=300)
    def test_structured_garbage(self, text):
        """YAML-looking noise must parse or raise, never hang/crash."""
        try:
            parse(text)
        except PolicyParseError:
            pass


class TestVsfBlobFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_load_vsf_never_crashes(self, blob):
        try:
            load_vsf(blob)
        except VsfLoadError:
            pass

    @given(st.text(max_size=100), st.dictionaries(
        st.text(max_size=8), st.integers(), max_size=3))
    @settings(max_examples=100)
    def test_arbitrary_specs_rejected_or_loaded(self, factory, params):
        from repro.core.delegation import pack_vsf
        try:
            vsf = load_vsf(pack_vsf(factory, params))
        except VsfLoadError:
            return
        assert callable(vsf)
