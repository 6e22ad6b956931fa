"""Low-level wire primitives: varints, strings and byte blobs.

The paper serializes FlexRAN protocol messages with Google Protocol
Buffers and credits "their optimized serialization" for the sublinear
signaling growth of Fig. 7a.  Protobuf is not available offline, so the
reproduction implements the same family of primitives from scratch:
LEB128 varints and length-prefixed UTF-8 strings and byte blobs.  Wire
sizes are therefore directly comparable to a protobuf encoding of the
same data.

These are the scalar primitives only.  Messages, lists and maps are
laid out by the codec :mod:`repro.core.protocol.schema` compiles from
each message's field table.  Its generated code encodes every value
that fits from byte tables straight into the Writer's buffer (varints
of up to 4 bytes, bytes, bools, masks, counts) and decodes varints of
up to 4 bytes inline; it calls back into :class:`Writer` /
:class:`Reader` for the rest (5+ byte varints, strings, blobs, a mask
with unknown bits, long ``rle`` counts and every range error), so each
check and error message lives here once.

Encode and decode enforce the same 10-byte varint bound, so every
frame a :class:`Writer` can produce is one a :class:`Reader` will
accept: out-of-range values, and text with no UTF-8 form, raise
:class:`EncodeError` at the sender instead of a :class:`DecodeError`
at the receiver.
"""

from __future__ import annotations

from repro.core.protocol.errors import DecodeError, EncodeError

_MAX_VARINT_BYTES = 10

# A 10-byte LEB128 varint carries 10 x 7 = 70 payload bits, so the
# largest encodable unsigned value is 2^70 - 1.  Zigzag halves that
# range symmetrically around zero.
_VARINT_LIMIT = 1 << (7 * _MAX_VARINT_BYTES)
_SVARINT_MIN = -(_VARINT_LIMIT >> 1)
_SVARINT_MAX = (_VARINT_LIMIT >> 1) - 1

MAX_RLE_COUNT = 256
"""Most elements an ``rle`` vector may declare, on either side.

A constant-coded vector is the one place a decoder allocates from a
declared count (``[value] * count``), so the count is bounded before
anything is built.  The largest legitimate vector is one value per PRB
of a 20 MHz carrier (110); the bound leaves room above that and keeps
what a hostile frame can make a decoder allocate per declared byte
small.  Must stay >= 0x7F: the generated code checks only counts that
do not fit one byte.
"""


class Writer:
    """Append-only wire buffer, reusable across messages via :meth:`reset`."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts = bytearray()

    def reset(self) -> "Writer":
        """Clear the buffer for reuse (keeps the allocation warm)."""
        del self._parts[:]
        return self

    def varint(self, value: int) -> "Writer":
        """Append an unsigned LEB128 varint."""
        if value < 0x80:
            # Fast path: the overwhelming majority of protocol fields
            # (CQIs, PRB counts, list lengths, flags) fit in one byte.
            if value < 0:
                raise EncodeError(
                    f"varint cannot encode negative value {value}")
            self._parts.append(value)
            return self
        parts = self._parts
        if value < 0x4000:
            # Two-byte fast path (queue depths, SINR fixed-point,
            # moderate byte counters) skips the generic shift loop.
            parts.append((value & 0x7F) | 0x80)
            parts.append(value >> 7)
            return self
        if value >= _VARINT_LIMIT:
            raise EncodeError(
                f"varint out of range: {value} needs more than "
                f"{_MAX_VARINT_BYTES} bytes")
        while value >= 0x80:
            parts.append((value & 0x7F) | 0x80)
            value >>= 7
        parts.append(value)
        return self

    def svarint(self, value: int) -> "Writer":
        """Append a signed integer using zigzag encoding.

        The mapping is width-free (no 64-bit assumption): zigzag(v) is
        ``2v`` for ``v >= 0`` and ``-2v - 1`` for ``v < 0``, valid for
        arbitrary Python ints.  Values outside the 10-byte varint range
        raise :class:`EncodeError`.
        """
        if value < _SVARINT_MIN or value > _SVARINT_MAX:
            raise EncodeError(
                f"svarint out of range: {value} not in "
                f"[{_SVARINT_MIN}, {_SVARINT_MAX}]")
        return self.varint((value << 1) if value >= 0 else ~(value << 1))

    def byte(self, value: int) -> "Writer":
        if not 0 <= value <= 0xFF:
            raise EncodeError(f"byte out of range: {value}")
        self._parts.append(value)
        return self

    def mask(self, value: int, allowed: int) -> "Writer":
        """Append a group presence mask: one octet, bits of *allowed* only."""
        if value & ~allowed:
            raise EncodeError(
                f"mask {value:#x} has bits outside the declared groups "
                f"{allowed:#04x}")
        self._parts.append(value)
        return self

    def rle_count(self, count: int) -> "Writer":
        """Append the element count of an ``rle`` vector."""
        if count > MAX_RLE_COUNT:
            raise EncodeError(
                f"rle vector of {count} elements exceeds the "
                f"{MAX_RLE_COUNT}-element bound")
        return self.varint(count)

    def string(self, text: str) -> "Writer":
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as exc:
            # A lone surrogate ("\ud800") is a str but has no UTF-8 form.
            raise EncodeError(f"string field is not encodable as UTF-8: "
                              f"{exc}") from None
        self.varint(len(data))
        self._parts.extend(data)
        return self

    def blob(self, data: bytes) -> "Writer":
        self.varint(len(data))
        self._parts.extend(data)
        return self

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class Reader:
    """Sequential wire-buffer reader."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        if pos >= len(data):
            raise DecodeError("truncated varint")
        byte = data[pos]
        if not byte & 0x80:
            # Fast path: single-byte varint (the common case on every
            # hot decode: CQIs, list lengths, RNTIs below 128, flags).
            self._pos = pos + 1
            return byte
        result = byte & 0x7F
        shift = 7
        pos += 1
        for _ in range(_MAX_VARINT_BYTES - 1):
            if pos >= len(data):
                raise DecodeError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._pos = pos
                return result
            shift += 7
        raise DecodeError("varint longer than 10 bytes")

    def svarint(self) -> int:
        # The 10-byte cap in :meth:`varint` mirrors the Writer-side
        # range check: every decodable zigzag value lies inside
        # [_SVARINT_MIN, _SVARINT_MAX], so round-trips are total.
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def byte(self) -> int:
        if self._pos >= len(self._data):
            raise DecodeError("truncated byte")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def mask(self, allowed: int) -> int:
        value = self.byte()
        if value & ~allowed:
            raise DecodeError(
                f"mask {value:#04x} has bits outside the declared groups "
                f"{allowed:#04x}")
        return value

    def rle_count(self) -> int:
        """The element count of an ``rle`` vector, bounded before any
        caller builds ``[value] * count`` from it."""
        count = self.varint()
        if count > MAX_RLE_COUNT:
            raise DecodeError(
                f"rle vector declares {count} elements, more than the "
                f"{MAX_RLE_COUNT}-element bound")
        return count

    def string(self) -> str:
        data = self._take(self.varint())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in string field: {exc}") \
                from None

    def blob(self) -> bytes:
        return self._take(self.varint())

    def expect_end(self) -> None:
        if self.remaining:
            raise DecodeError(f"{self.remaining} trailing bytes after message")

    def _take(self, n: int) -> bytes:
        if n > self.remaining:
            raise DecodeError(
                f"truncated field: need {n} bytes, have {self.remaining}")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out
