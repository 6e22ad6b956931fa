"""Compiled codec vs. the table-walking reference, on every class.

The compiled ``encode`` / ``decode`` of each message and record must
produce the bytes, the objects and the exception classes of
:mod:`tests.core.schema_reference`, which walks the same ``FIELDS``
with one checked primitive call per value.  Values and hostile values
are generated from the tables themselves, so a new message is covered
the day it is declared.  The out-of-range half is the schema-level port
of ``test_wire_bounds.py``: every position a scalar can sit in (field,
list element, map key, map value, ``rle`` element and ``rle`` constant)
rejects what the primitive rejects.  A class with a group column is
compared the same way with every mask, and its generated
``changed_groups`` / ``merge`` against the reference's field loops.
"""

from dataclasses import astuple, dataclass, field, replace
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol import codec
from repro.core.protocol.errors import DecodeError, EncodeError
from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    CellStatsReport,
    Header,
    StatsReply,
    UeStatsReport,
)
from repro.core.protocol.schema import (
    LIST_KIND,
    MAP_KIND,
    RLE_KIND,
    compile_codec,
    wire_fields,
)
from repro.core.protocol.wire import MAX_RLE_COUNT, Reader, Writer

from tests.core import schema_reference as reference


@compile_codec
@dataclass(slots=True)
class Probe:
    """Kinds and nestings no protocol message happens to use."""

    flags: List[bool] = field(default_factory=list)
    octets: List[int] = field(default_factory=list)
    blobs: List[bytes] = field(default_factory=list)
    names: Dict[str, int] = field(default_factory=dict)
    offsets: Dict[int, int] = field(default_factory=dict)
    origin: Header = field(default_factory=Header)
    delta: int = 0

    FIELDS = (("flags", "list<bool>"), ("octets", "list<byte>"),
              ("blobs", "list<blob>"), ("names", "map<string,varint>"),
              ("offsets", "map<svarint,svarint>"), ("origin", "Header"),
              ("delta", "svarint"))


@compile_codec
@dataclass(slots=True)
class GroupedProbe:
    """Groups and ``rle`` items ``UeStatsReport`` does not have: a high
    mask bit, a one-field group, an ungrouped field after the groups,
    non-zero defaults, and runs of octets, flags and strings."""

    present: int = 0x85
    octets: List[int] = field(default_factory=list)
    level: int = -3
    flags: List[bool] = field(default_factory=list)
    words: List[str] = field(default_factory=list)
    label: str = "none"
    trailer: int = 7

    FIELDS = (("present", "mask"), ("octets", "rle<byte>", 0x80),
              ("level", "svarint", 0x80), ("flags", "rle<bool>", 0x01),
              ("words", "rle<string>", 0x04), ("label", "string", 0x04),
              ("trailer", "varint"))


MESSAGES = sorted(MESSAGE_TYPES.values(), key=lambda c: c.MSG_TYPE)
CLASSES = [*reference.RECORDS, Probe, GroupedProbe, *MESSAGES]
GROUPED = [cls for cls in CLASSES if reference.mask_field(cls)]

VARINT_MAX = 2 ** 70 - 1
SVARINT_MIN, SVARINT_MAX = -(2 ** 69), 2 ** 69 - 1
# Both sides of every width the generated code switches on.
EDGES = [0, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, 0xFFFFFFF,
         0x10000000, 2 ** 63, 2 ** 64, VARINT_MAX]

IN_RANGE = {
    "varint": st.one_of(st.integers(0, 300), st.sampled_from(EDGES),
                        st.integers(0, VARINT_MAX)),
    "svarint": st.one_of(
        st.integers(-300, 300),
        st.sampled_from([e >> 1 for e in EDGES] + [~(e >> 1) for e in EDGES]),
        st.integers(SVARINT_MIN, SVARINT_MAX)),
    "byte": st.integers(0, 255),
    "bool": st.booleans(),
    "string": st.text(max_size=12),
    "blob": st.binary(max_size=12),
}
OUT_OF_RANGE = {
    "varint": st.one_of(st.integers(max_value=-1),
                        st.integers(min_value=VARINT_MAX + 1)),
    "svarint": st.one_of(st.integers(max_value=SVARINT_MIN - 1),
                         st.integers(min_value=SVARINT_MAX + 1)),
    "byte": st.one_of(st.integers(max_value=-1), st.integers(min_value=256)),
}


def values(owner, kind):
    """Strategy for in-range values of a field of *kind*."""
    is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
    is_rle = RLE_KIND.match(kind)
    if is_rle:
        # Both codings on both sides of the 1-byte count, up to the bound.
        item = values(owner, is_rle.group(1))
        sizes = st.one_of(st.integers(0, 5),
                          st.integers(0x7E, 0x82),
                          st.integers(MAX_RLE_COUNT - 1, MAX_RLE_COUNT))
        return st.one_of(
            st.lists(item, max_size=5),
            st.builds(lambda x, n: [x] * n, item, sizes),
            st.builds(lambda x, y, n: [x] * n + [y], item, item, sizes.filter(
                lambda n: n < MAX_RLE_COUNT)))
    if kind == "mask":
        return st.integers(0, 0xFF).map(
            lambda bits: bits & reference.group_bits(owner))
    if is_list:
        item = values(owner, is_list.group(1))
        if is_list.group(1) in IN_RANGE:  # cross the 1-byte count too
            return st.one_of(st.lists(item, max_size=5),
                             st.lists(item, min_size=128, max_size=131))
        return st.lists(item, max_size=3)
    if is_map:
        return st.dictionaries(values(owner, is_map.group(1)),
                               values(owner, is_map.group(2)), max_size=4)
    if kind in IN_RANGE:
        return IN_RANGE[kind]
    return instances(reference.record_class(owner, kind))


def instances(cls):
    """Instances the wire can carry: a group the drawn mask leaves out
    holds its defaults."""
    return st.builds(cls, **{name: values(cls, kind)
                             for name, kind, _ in wire_fields(cls)}
                     ).map(reference.blank_absent_groups)


def compiled_bytes(obj) -> bytes:
    w = Writer()
    obj.encode(w)
    return w.getvalue()


def reference_bytes(obj) -> bytes:
    w = Writer()
    reference.encode(obj, w)
    return w.getvalue()


def outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception class)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is what is being compared
        return "raised", type(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_same_bytes_and_same_objects(cls, data):
    obj = data.draw(instances(cls))
    wire = compiled_bytes(obj)
    assert wire == reference_bytes(obj)
    for decoded in (cls.decode(Reader(wire)),
                    reference.decode(cls, Reader(wire))):
        assert type(decoded) is cls
        assert decoded == obj


def hostile_sites(cls):
    """(field, kind, where, kind of the other half of a map entry) for
    every position a range-checked scalar sits in."""
    for name, kind, _ in wire_fields(cls):
        is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
        is_rle = RLE_KIND.match(kind)
        if kind in OUT_OF_RANGE:
            yield name, kind, "scalar", None
        elif is_list and is_list.group(1) in OUT_OF_RANGE:
            yield name, is_list.group(1), "element", None
        elif is_rle and is_rle.group(1) in OUT_OF_RANGE:
            yield name, is_rle.group(1), "element", None
            yield name, is_rle.group(1), "constant", None
        elif is_map:
            key, value = is_map.groups()
            if key in OUT_OF_RANGE:
                yield name, key, "key", value
            if value in OUT_OF_RANGE:
                yield name, value, "value", key


SITES = [(cls, *site) for cls in CLASSES for site in hostile_sites(cls)]


@pytest.mark.parametrize(
    "cls,name,kind,where,other", SITES,
    ids=[f"{c.__name__}.{n}-{w}" for c, n, _, w, _ in SITES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_out_of_range_values_raise_the_same_error(cls, name, kind, where,
                                                  other, data):
    obj = data.draw(instances(cls))
    bad = data.draw(OUT_OF_RANGE[kind])
    good = getattr(obj, name)
    if where == "scalar":
        poisoned = bad
    elif where == "element":
        # Among single-byte neighbours and among wide ones: the bulk
        # test and the per-item loop both have to notice.
        good = good[:MAX_RLE_COUNT - 1]
        cut = data.draw(st.integers(0, len(good)))
        poisoned = good[:cut] + [bad] + good[cut:]
    elif where == "constant":
        poisoned = [bad] * data.draw(st.integers(1, 3))
    elif where == "key":
        poisoned = {**good, bad: data.draw(values(cls, other))}
    else:
        poisoned = {**good, data.draw(values(cls, other)): bad}
    hostile = replace(obj, **{name: poisoned})
    mask = reference.mask_field(cls)
    if mask:  # the poisoned field has to be on the wire to be noticed
        hostile = replace(hostile, **{mask: reference.group_bits(cls)})
    assert outcome(compiled_bytes, hostile) == ("raised", EncodeError)
    assert outcome(reference_bytes, hostile) == ("raised", EncodeError)


def test_out_of_range_inside_a_nested_record_surfaces():
    reply = StatsReply(ue_reports=[UeStatsReport(), UeStatsReport(rnti=-1)])
    assert outcome(codec.encode, reply) == ("raised", EncodeError)
    assert outcome(reference.encode_frame, reply) == ("raised", EncodeError)
    # The scratch buffer of the failed encode does not leak into the next.
    assert codec.encode(StatsReply()) == reference.encode_frame(StatsReply())


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_frames_decode_the_same(cls, data):
    """Any byte changed, dropped or added: same object or same error."""
    frame = bytearray(codec.encode(data.draw(instances(cls))))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(1, len(frame)))  # keep the type byte
        edit = data.draw(st.sampled_from(["set", "drop", "insert"]))
        if edit == "insert":
            frame.insert(at, data.draw(st.integers(0, 255)))
        elif at < len(frame):
            if edit == "set":
                frame[at] = data.draw(st.integers(0, 255))
            else:
                del frame[at]
    frame = bytes(frame)
    got = outcome(codec.decode, frame)
    assert got == outcome(reference.decode_frame, frame)
    assert got[0] == "ok" or issubclass(got[1], DecodeError)


BOUNDARY_VECTORS = [
    ([0x7F], [63]), ([0x7F, 0], [-64, 63]),      # last all-single-byte lists
    ([0x80], [64]), ([0, 0x80], [63, -65]),      # first ones that are not
    ([0x7F] * 128, [-64] * 128),                 # 2-byte count, bulk body
    ([], []),
    ([0x7F] * 127 + [0], [-64] * 127 + [63]),    # ... and not constant
]


@pytest.mark.parametrize("cqi,sinr", BOUNDARY_VECTORS)
def test_bulk_slice_boundaries(cqi, sinr):
    """The one-slice path and the per-item loop meet at 0x7F / 0x80 and
    at zigzag -64 / 63: one step either side must match the reference.
    (Through a cell report: its per-PRB vectors are the plain lists.)"""
    report = CellStatsReport(dl_prb_occupancy=cqi,
                             noise_interference_per_prb_x10=sinr)
    wire = compiled_bytes(report)
    assert wire == reference_bytes(report)
    assert CellStatsReport.decode(Reader(wire)) == report
    assert reference.decode(CellStatsReport, Reader(wire)) == report


@pytest.mark.parametrize("cqi,sinr", BOUNDARY_VECTORS + [
    ([3] * MAX_RLE_COUNT, list(range(MAX_RLE_COUNT)))])
def test_rle_boundaries(cqi, sinr):
    """The same edges through ``rle``: a constant vector is count, 1,
    one value whatever its width; anything else is the plain list."""
    report = UeStatsReport(subband_cqi=cqi, subband_sinr_db_x10=sinr)
    wire = compiled_bytes(report)
    assert wire == reference_bytes(report)
    assert UeStatsReport.decode(Reader(wire)) == report
    assert reference.decode(UeStatsReport, Reader(wire)) == report
    if cqi and len(set(cqi)) == 1:
        w = Writer()
        w.varint(len(cqi)).byte(1).varint(cqi[0])
        assert w.getvalue() in wire


@pytest.mark.parametrize("vector", [[5] * (MAX_RLE_COUNT + 1),
                                    list(range(MAX_RLE_COUNT + 1))])
def test_rle_longer_than_the_bound_is_refused_at_the_sender(vector):
    report = UeStatsReport(subband_cqi=vector)
    assert outcome(compiled_bytes, report) == ("raised", EncodeError)
    assert outcome(reference_bytes, report) == ("raised", EncodeError)


@pytest.mark.parametrize("cls", GROUPED, ids=lambda c: c.__name__)
def test_mask_bits_outside_the_declared_groups_do_not_encode(cls):
    allowed = reference.group_bits(cls)
    for bad in (allowed + 1, 0x100 | allowed, -1, 0xFF ^ allowed or 0x100):
        hostile = replace(cls(), **{reference.mask_field(cls): bad})
        assert outcome(compiled_bytes, hostile) == ("raised", EncodeError)
        assert outcome(reference_bytes, hostile) == ("raised", EncodeError)


@pytest.mark.parametrize("cls", GROUPED, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_functions_match_the_field_loops(cls, data):
    """``changed_groups`` names exactly the groups whose fields differ
    (``UNGROUPED`` for the rest) and changes neither record, and merging
    what it names brings a stored record up to date -- the delta path
    end to end, against the reference's ``getattr`` loops."""
    mask = reference.mask_field(cls)
    whole = reference.group_bits(cls)
    stored = replace(data.draw(instances(cls)), **{mask: whole})
    # A successor that shares some groups with its predecessor.
    other = replace(data.draw(instances(cls)), **{mask: whole})
    keep = data.draw(values(cls, "mask"))
    fresh = replace(other, **{
        name: getattr(stored, name)
        for name, _, group in wire_fields(cls) if group and group & keep})
    before = (astuple(stored), astuple(fresh))  # deep copies
    changed = cls.changed_groups(stored, fresh)
    assert changed == reference.changed_groups(stored, fresh)
    assert not changed & keep
    assert (astuple(stored), astuple(fresh)) == before
    assert cls.changed_groups(fresh, fresh) == 0
    delta = reference.blank_absent_groups(
        replace(fresh, **{mask: changed & whole}))
    merged = cls.merge(stored, delta)
    assert merged == reference.merge(stored, delta) == fresh
    assert merged is not stored and (merged is not delta
                                     or changed & whole == whole)
    # Merging over nothing stored is merging over the defaults.
    assert cls.merge(replace(cls(), **{mask: 0}), delta) == delta
