"""Framing: FlexRAN message <-> wire bytes.

Frame layout::

    [1 byte  message type]
    [varint  agent id]
    [varint  transaction id]
    [varint  TTI stamp]
    [payload, message-specific]

Every message the platform exchanges goes through ``encode``/``decode``
-- also in simulation, so the signaling-overhead measurements of Fig. 7
count real serialized bytes and the decode path is exercised end-to-end
on every TTI.  Header and payload are laid out by each message class's
generated ``encode`` / ``decode`` (:mod:`repro.core.protocol.schema`);
the wire size of a message is ``len(encode(message))``.
"""

from __future__ import annotations

from repro.core.protocol.errors import (
    DecodeError,
    RetiredMessageType,
    UnknownMessageType,
)
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    RETIRED_MESSAGE_TYPES,
    FlexRanMessage,
)
from repro.core.protocol.wire import Reader, Writer

# Scratch buffer reused across calls: encode runs on every message of
# every TTI, and a fresh bytearray per frame dominated the profile.
# The simulator is single-threaded and message encoders never nest a
# codec call, so one scratch suffices; reset() at entry also clears
# any residue from an encoder that raised mid-frame.
_SCRATCH = Writer()


def encode(message: FlexRanMessage) -> bytes:
    """Serialize *message* into a wire frame."""
    w = _SCRATCH.reset()
    w.byte(message.MSG_TYPE)
    message.encode(w)
    return w.getvalue()


def decode(frame: bytes) -> FlexRanMessage:
    """Parse a wire frame back into a message instance."""
    if not frame:
        raise DecodeError("empty frame")
    r = Reader(frame)
    msg_type = r.byte()
    try:
        cls = MESSAGE_TYPES[msg_type]
    except KeyError:
        retired = RETIRED_MESSAGE_TYPES.get(msg_type)
        if retired is not None:
            raise RetiredMessageType(
                f"message type {msg_type} ({retired}) was removed from "
                f"this protocol; the sender speaks a deprecated dialect "
                f"and must be upgraded") from None
        raise UnknownMessageType(f"unknown message type {msg_type}") from None
    message = cls.decode(r)
    r.expect_end()
    return message
