"""Reference interpreter of the ``FIELDS`` tables.

Walks the same tables :mod:`repro.core.protocol.schema` compiles, one
``Writer`` / ``Reader`` primitive call per value: plain loops, nothing
unrolled, no bulk slices, instances built through the dataclass
``__init__``.  It shares only the scalar primitives with the compiled
codec, so the differential tests catch any inlined case that drifts
from them.  The group column is read here on its own too: a field with
a group bit is walked iff the record's mask has the bit, and
``changed_groups`` / ``merge`` are field-by-field ``getattr`` loops.
Far too slow for the platform; tests only.
"""

import sys

from repro.core.protocol.errors import DecodeError
from repro.core.protocol.messages import MESSAGE_TYPES
from repro.core.protocol.schema import (
    LIST_KIND,
    MAP_KIND,
    RLE_KIND,
    UNGROUPED,
    wire_fields,
)
from repro.core.protocol.wire import Reader, Writer

SCALAR_KINDS = ("varint", "svarint", "byte", "string", "blob")


def nested_kinds(kind):
    """The kinds inside a ``list<>`` / ``map<>`` / ``rle<>``, or *kind*."""
    nested = LIST_KIND.match(kind) or MAP_KIND.match(kind) \
        or RLE_KIND.match(kind)
    return nested.groups() if nested else (kind,)


def mask_field(cls):
    """Name of the ``mask`` field of *cls* (None without groups)."""
    return next((name for name, kind, _ in wire_fields(cls)
                 if kind == "mask"), None)


def group_bits(cls) -> int:
    """Union of the bits in the group column of *cls*."""
    bits = 0
    for _, _, group in wire_fields(cls):
        bits |= group or 0
    return bits


def record_class(owner, kind):
    return vars(sys.modules[owner.__module__])[kind]


def records_of(classes):
    """Every record class the tables of *classes* reach, in first-use
    order: a record added to a message is covered without a list to edit."""
    found = []
    for cls in classes:
        for _, kind, _ in wire_fields(cls):
            for name in nested_kinds(kind):
                if name in SCALAR_KINDS or name in ("bool", "mask"):
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
    elif RLE_KIND.match(kind):
        item = RLE_KIND.match(kind).group(1)
        items = list(value)
        w.rle_count(len(items))
        constant = bool(items) and all(x == items[0] for x in items)
        w.byte(1 if constant else 0)
        for x in items[:1] if constant else items:
            put(w, owner, item, x)
    elif kind == "mask":
        w.mask(value, group_bits(owner))
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
    if RLE_KIND.match(kind):
        item = RLE_KIND.match(kind).group(1)
        count = r.rle_count()
        flag = r.byte()
        if flag > 1:
            raise DecodeError(f"rle flag octet must be 0 or 1, got {flag}")
        if flag == 1:
            if count == 0:
                raise DecodeError("constant-coded rle vector of no elements")
            return [get(r, owner, item)] * count
        items = [get(r, owner, item) for _ in range(count)]
        if items and all(x == items[0] for x in items):
            raise DecodeError("plain-coded rle vector of equal elements")
        return items
    if kind == "mask":
        return r.mask(group_bits(owner))
    if kind == "bool":
        octet = r.byte()
        if octet > 1:
            raise DecodeError(f"bool octet must be 0 or 1, got {octet}")
        return octet == 1
    if kind in SCALAR_KINDS:
        return getattr(r, kind)()
    return decode(record_class(owner, kind), r)


def present(mask, group) -> bool:
    return group is None or bool(mask & group)


def mask_of(obj) -> int:
    name = mask_field(type(obj))
    return getattr(obj, name) if name else 0


def encode(obj, w):
    cls = type(obj)
    for name, kind, group in wire_fields(cls):
        if present(mask_of(obj), group):
            put(w, cls, kind, getattr(obj, name))


def decode(cls, r):
    """Absent groups are simply not passed: the dataclass defaults are
    what "absent" decodes to."""
    values = {}
    for name, kind, group in wire_fields(cls):
        if present(values.get(mask_field(cls), 0), group):
            values[name] = get(r, cls, kind)
    return cls(**values)


def blank_absent_groups(obj):
    """*obj* as the wire can carry it: every field of a group its mask
    leaves out reset to the dataclass default."""
    return type(obj)(**{name: getattr(obj, name)
                        for name, _, group in wire_fields(type(obj))
                        if present(mask_of(obj), group)})


def changed_groups(prev, rec) -> int:
    """Reference ``changed_groups``: *prev* is the previous record, not
    what was remembered of it, and nothing is updated."""
    mask = 0
    for name, kind, group in wire_fields(type(rec)):
        if kind != "mask" and getattr(prev, name) != getattr(rec, name):
            mask |= UNGROUPED if group is None else group
    return mask


def merge(stored, delta):
    """Reference ``merge``: always a new record."""
    values = {}
    for name, kind, group in wire_fields(type(delta)):
        if kind == "mask":
            values[name] = getattr(stored, name) | getattr(delta, name)
        else:
            source = delta if present(mask_of(delta), group) else stored
            values[name] = getattr(source, name)
    return type(delta)(**values)


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
