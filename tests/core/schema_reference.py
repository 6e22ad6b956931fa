"""Reference interpreter of the ``FIELDS`` tables.

Walks the same tables :mod:`repro.core.protocol.schema` compiles, one
``Writer`` / ``Reader`` primitive call per value: plain loops, nothing
unrolled, no bulk slices, instances built through the dataclass
``__init__``.  It shares only the scalar primitives with the compiled
codec, so the differential tests catch any inlined case that drifts
from them.  Far too slow for the platform; tests only.
"""

import sys

from repro.core.protocol.errors import DecodeError
from repro.core.protocol.messages import MESSAGE_TYPES
from repro.core.protocol.schema import LIST_KIND, MAP_KIND, wire_fields
from repro.core.protocol.wire import Reader, Writer

SCALAR_KINDS = ("varint", "svarint", "byte", "string", "blob")


def record_class(owner, kind):
    return vars(sys.modules[owner.__module__])[kind]


def records_of(classes):
    """Every record class the tables of *classes* reach, in first-use
    order: a record added to a message is covered without a list to edit."""
    found = []
    for cls in classes:
        for _, kind in wire_fields(cls):
            nested = LIST_KIND.match(kind) or MAP_KIND.match(kind)
            for name in (nested.groups() if nested else (kind,)):
                if name in SCALAR_KINDS or name == "bool":
                    continue
                record = record_class(cls, name)
                for reached in (*records_of([record]), record):
                    if reached not in found:
                        found.append(reached)
    return found


def put(w, owner, kind, value):
    if LIST_KIND.match(kind):
        items = list(value)
        w.varint(len(items))
        for item in items:
            put(w, owner, LIST_KIND.match(kind).group(1), item)
    elif MAP_KIND.match(kind):
        key_kind, value_kind = MAP_KIND.match(kind).groups()
        w.varint(len(value))
        for key in sorted(value):
            put(w, owner, key_kind, key)
            put(w, owner, value_kind, value[key])
    elif kind == "bool":
        w.byte(1 if value else 0)
    elif kind in SCALAR_KINDS:
        getattr(w, kind)(value)
    else:
        encode(value, w)


def get(r, owner, kind):
    if LIST_KIND.match(kind):
        item = LIST_KIND.match(kind).group(1)
        return [get(r, owner, item) for _ in range(r.varint())]
    if MAP_KIND.match(kind):
        key_kind, value_kind = MAP_KIND.match(kind).groups()
        return {get(r, owner, key_kind): get(r, owner, value_kind)
                for _ in range(r.varint())}
    if kind == "bool":
        octet = r.byte()
        if octet > 1:
            raise DecodeError(f"bool octet must be 0 or 1, got {octet}")
        return octet == 1
    if kind in SCALAR_KINDS:
        return getattr(r, kind)()
    return decode(record_class(owner, kind), r)


def encode(obj, w):
    for name, kind in wire_fields(type(obj)):
        put(w, type(obj), kind, getattr(obj, name))


def decode(cls, r):
    return cls(**{name: get(r, cls, kind) for name, kind in wire_fields(cls)})


def encode_frame(message) -> bytes:
    w = Writer()
    w.byte(message.MSG_TYPE)
    encode(message, w)
    return w.getvalue()


def decode_frame(frame: bytes):
    """Reference twin of ``codec.decode`` for known, non-empty frames."""
    r = Reader(frame)
    message = decode(MESSAGE_TYPES[r.byte()], r)
    r.expect_end()
    return message


RECORDS = records_of(MESSAGE_TYPES.values())
"""Header and the five nested records, found from the message tables."""
