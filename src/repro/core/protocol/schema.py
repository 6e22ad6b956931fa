"""Schema -> compiled codec: one field table per message, code emitted at import.

The paper generates its protocol codec from a Protobuf schema.  Here a
message or record dataclass declares its wire layout once::

    FIELDS = (("rnti", "varint"), ("queues", "map<varint,varint>"), ...)

and :func:`compile_codec` (a class decorator, applied the way
``dataclasses`` emits ``__init__``) turns that table into two
straight-line functions attached to the class:

* ``encode(self, w)`` appends the fields, in table order, to a
  :class:`~repro.core.protocol.wire.Writer`;
* ``decode(r)`` reads them back from a
  :class:`~repro.core.protocol.wire.Reader` and returns an instance.

Field kinds: ``varint``, ``svarint``, ``byte``, ``bool``, ``string``,
``blob``, the name of an already compiled record class, ``list<kind>``,
``map<kind,kind>`` (scalar keys and values, keys sorted on the wire),
``rle<kind>`` (a scalar vector sent as count + one value when its
elements are all equal, as the plain list otherwise) and ``mask``.
``FIELDS`` of base classes come first, so every message starts with
the ``header`` that :class:`FlexRanMessage` declares.

A record with optional parts declares one ``mask`` field and gives
every optional field a third column, the bit of the *group* it belongs
to::

    FIELDS = (("rnti", "varint"), ("groups", "mask"),
              ("queues", "map<varint,varint>", 0x01), ...)

A group's fields are contiguous and on the wire iff its bit is set in
the mask; absent fields decode to their dataclass defaults.  From the
same column the compiler also emits, for such a class,

* ``group_values(rec)`` -- a list of the values of every field but the
  mask, in table order, sharing *rec*'s containers: what a sender
  remembers of the records it sent, to diff the next one against;
* ``changed_groups(seen, rec)`` -- the bits of the groups in which
  *rec* differs from such a list, plus :data:`UNGROUPED` when a field
  outside every group does; *seen* is brought up to date in exactly
  those groups, in place, so an unchanged group keeps the containers it
  already held and a diff allocates nothing;
* ``merge(stored, delta)`` -- a new record: *stored* overlaid with the
  ungrouped fields and present groups of *delta*, its mask the union
  (*delta* itself when it carries every group);

and sets ``ALL_GROUPS`` to the union of the declared bits, so the
partition is written once, in the table.

What the emitted code looks like, and why:

* Varints of 1, 2, 3 and 4 bytes are unrolled inline on both sides;
  anything longer, and every value a check rejects, goes to the one
  ``Writer`` / ``Reader`` primitive that owns the check and its error
  message.  The multi-byte cases matter: about 17 of the 45 varints in
  a real ``UeStatsReport`` (SINR x10, byte counters, RNTIs) are 2-4
  bytes, so inlining only the single-byte case saves calls but no time.
* List and map loops are inlined; an all-single-byte ``list<varint>``
  or ``list<svarint>`` is still moved as one slice.
* Decoding runs over local ``data`` / ``pos`` with no bounds test per
  byte: running off the end raises ``IndexError``, which each decode
  turns into :class:`DecodeError` once.  Slices do not raise, so bulk
  lists compare lengths, and strings and blobs go through the
  ``Reader`` primitive that does.
* Instances are built with ``object.__new__`` and one ``__dict__``
  assignment, skipping the dataclass ``__init__`` keyword binding.
* A group is one ``if mask & bit:`` around its fields, on both sides.
* An ``rle`` count is the one declared count that sizes an allocation
  (``[value] * count``), so ``Reader.rle_count`` bounds it first; the
  flag octet is strict and a plain-coded vector of equal elements is
  rejected, which keeps ``encode(decode(frame)) == frame``.

The source of each pair is kept on the class (``CODEC_SOURCE``) and
registered in :mod:`linecache` under
``<repro/core/protocol/schema ClassName>``, so tracebacks show the
generated line and profilers attribute the time to this package.

Adding a message: write the dataclass with ``MSG_TYPE``, ``CATEGORY``
and ``FIELDS``, decorate it, list it in ``MESSAGE_TYPES``, document the
payload in ``docs/PROTOCOL.md`` and pin a frame in
``tests/core/golden_frames.json``.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import linecache
import re
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.protocol.errors import DecodeError

LIST_KIND = re.compile(r"list<(\w+)>$")
MAP_KIND = re.compile(r"map<(\w+),(\w+)>$")
RLE_KIND = re.compile(r"rle<(\w+)>$")

UNGROUPED = 0x100
"""Set in a ``changed_groups`` result when a field outside every group
differs.  A mask is one octet on the wire, so this bit is never sent."""

# -- encode templates: the value is in local {v} --------------------------
#
# ``append`` is the bound ``bytearray.append`` of the Writer's buffer.
# Every branch that cannot encode inline calls the Writer primitive,
# which either handles the value (5+ bytes) or raises its EncodeError.

_PUT_VARINT = """\
if {v} < 0x80:
    if {v} >= 0:
        append({v})
    else:
        w.varint({v})
elif {v} < 0x4000:
    append({v} & 0x7F | 0x80)
    append({v} >> 7)
elif {v} < 0x200000:
    append({v} & 0x7F | 0x80)
    append({v} >> 7 & 0x7F | 0x80)
    append({v} >> 14)
elif {v} < 0x10000000:
    append({v} & 0x7F | 0x80)
    append({v} >> 7 & 0x7F | 0x80)
    append({v} >> 14 & 0x7F | 0x80)
    append({v} >> 21)
else:
    w.varint({v})
"""

# Zigzag is never negative, and exceeds 4 bytes whenever the value is
# out of range, so the range check stays in Writer.svarint.
_PUT_SVARINT = """\
z = ({v} << 1) if {v} >= 0 else ~({v} << 1)
if z < 0x80:
    append(z)
elif z < 0x4000:
    append(z & 0x7F | 0x80)
    append(z >> 7)
elif z < 0x200000:
    append(z & 0x7F | 0x80)
    append(z >> 7 & 0x7F | 0x80)
    append(z >> 14)
elif z < 0x10000000:
    append(z & 0x7F | 0x80)
    append(z >> 7 & 0x7F | 0x80)
    append(z >> 14 & 0x7F | 0x80)
    append(z >> 21)
else:
    w.svarint({v})
"""

# Element counts are never negative and rarely exceed 127.  {count} is
# the Writer primitive for the rest: ``varint``, or ``rle_count`` with
# its bound (which no single-byte count can reach).
_PUT_COUNT = """\
n = len({v})
if n < 0x80:
    append(n)
else:
    w.{count}(n)
"""

_PUT = {
    "varint": _PUT_VARINT,
    "svarint": _PUT_SVARINT,
    "byte": """\
if 0 <= {v} <= 0xFF:
    append({v})
else:
    w.byte({v})
""",
    "bool": "append(1 if {v} else 0)\n",
    "string": "w.string({v})\n",
    "blob": "w.blob({v})\n",
}

# A list whose elements all encode to one byte is its own encoding
# (CQI / HARQ / occupancy vectors): min/max and bytes() run at C speed.
_PUT_BULK = {
    "varint": """\
if n and min(items) >= 0 and max(items) < 0x80:
    buf += bytes(items)
else:
""",
    "svarint": """\
if n and min(items) >= -64 and max(items) < 64:
    buf += bytes([(x << 1) if x >= 0 else ~(x << 1) for x in items])
else:
""",
}

# -- decode templates: the value lands in local {t} -----------------------
#
# With continuation bits still set, the bytes of an n-byte varint sum
# to the value plus 0x80, 0x4080 or 0x204080.  After four continuation
# bytes the Reader re-reads the varint from its first byte (and owns
# the 10-byte cap).

_GET_VARINT = """\
{t} = data[pos]
pos += 1
if {t} >= 0x80:
    b = data[pos]
    pos += 1
    if b < 0x80:
        {t} += (b << 7) - 0x80
    else:
        c = data[pos]
        pos += 1
        if c < 0x80:
            {t} += (b << 7) + (c << 14) - 0x4080
        else:
            d = data[pos]
            pos += 1
            if d < 0x80:
                {t} += (b << 7) + (c << 14) + (d << 21) - 0x204080
            else:
                r._pos = pos - 4
                {t} = r.varint()
                pos = r._pos
"""

_GET_COUNT = """\
n = data[pos]
pos += 1
if n >= 0x80:
    r._pos = pos - 1
    n = r.{count}()
    pos = r._pos
"""

_GET = {
    "varint": _GET_VARINT,
    "svarint": _GET_VARINT + "{t} = ({t} >> 1) ^ -({t} & 1)\n",
    "byte": "{t} = data[pos]\npos += 1\n",
    "bool": """\
{t} = data[pos]
pos += 1
if {t} > 1:
    raise DecodeError("bool octet must be 0 or 1, got %d" % {t})
{t} = {t} == 1
""",
    "string": "r._pos = pos\n{t} = r.string()\npos = r._pos\n",
    "blob": "r._pos = pos\n{t} = r.blob()\npos = r._pos\n",
}

_GET_BULK = {
    "varint": "list(chunk)",
    "svarint": "[(b >> 1) ^ -(b & 1) for b in chunk]",
}


def wire_fields(cls: type) -> List[Tuple[str, str, Optional[int]]]:
    """``(name, kind, group bit or None)`` triples of *cls* in wire
    order, base classes first.  Bits come back as plain ints (a table
    may write them as ``IntFlag`` members)."""
    fields = []
    for base in reversed(cls.__mro__):
        for name, kind, *column in vars(base).get("FIELDS", ()):
            group = column[0] if column else None
            fields.append(
                (name, kind, int(group) if isinstance(group, int) else group))
    return fields


def _indent(code: str, levels: int = 1) -> str:
    pad = "    " * levels
    return "".join(pad + line for line in code.splitlines(True))


class _ClassCompiler:
    """Emits the source of one class's generated functions."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.module = vars(sys.modules[cls.__module__])
        self.fields = wire_fields(cls)
        names = [name for name, _, _ in self.fields]
        declared = {f.name: f for f in dataclasses.fields(cls)}
        if sorted(declared) != sorted(names):
            raise TypeError(
                f"{cls.__name__}.FIELDS {names} does not cover its "
                f"dataclass fields {list(declared)}")
        self.namespace: Dict[str, object] = {
            "__name__": cls.__module__, "cls": cls, "new": object.__new__,
            "DecodeError": DecodeError}
        self.mask_index, self.all_groups = self._check_groups()
        #: Source of the default each grouped field decodes to when its
        #: group is absent.
        self.defaults = {
            name: self._default_literal(declared[name])
            for name, _, group in self.fields if group is not None}

    def _check_groups(self) -> Tuple[Optional[int], int]:
        """Index of the ``mask`` field and the union of the group bits."""
        name = self.cls.__name__
        masks = [i for i, (_, kind, _) in enumerate(self.fields)
                 if kind == "mask"]
        runs = [group for group, _ in self.runs() if group is not None]
        if not runs and not masks:
            return None, 0
        if len(masks) != 1 or self.fields[masks[0]][2] is not None:
            raise TypeError(
                f"{name}: grouped fields need exactly one ungrouped "
                f"'mask' field, found {len(masks)}")
        for i, (field, _, group) in enumerate(self.fields):
            if group is None:
                continue
            if (not isinstance(group, int) or group not in
                    (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80)):
                raise TypeError(
                    f"{name}.{field}: unknown group bit {group!r} (one "
                    f"bit of the mask octet, 0x01 .. 0x80)")
            if i < masks[0]:
                raise TypeError(
                    f"{name}.{field}: grouped field ahead of the mask")
        if len(set(runs)) != len(runs):
            raise TypeError(
                f"{name}: the fields of a group must be contiguous")
        return masks[0], sum(runs)

    def _default_literal(self, field: dataclasses.Field) -> str:
        value = (field.default_factory()
                 if field.default is dataclasses.MISSING else field.default)
        literal = repr(value)
        try:
            if ast.literal_eval(literal) == value:
                return literal
        except (ValueError, SyntaxError):
            pass
        raise TypeError(
            f"{self.cls.__name__}.{field.name}: a grouped field needs a "
            f"literal default, not {literal}")

    def use_record(self, kind: str) -> None:
        """Bind the codec of the compiled record class *kind* names."""
        record = self.module.get(kind)
        if not isinstance(record, type) or "CODEC_SOURCE" not in vars(record):
            raise TypeError(
                f"{self.cls.__name__}: unknown field kind {kind!r} (not a "
                f"scalar kind or a record compiled earlier in the module)")
        self.namespace[f"encode_{kind}"] = vars(record)["encode"]
        self.namespace[f"decode_{kind}"] = record.decode

    def rle_item(self, kind: str) -> str:
        """The item kind of an ``rle<kind>``, which must be a scalar."""
        if kind not in _PUT:
            raise TypeError(
                f"{self.cls.__name__}: rle<{kind}> is not a vector of "
                f"scalars")
        return kind

    # -- one value ---------------------------------------------------------

    def put(self, kind: str, v: str) -> str:
        if kind in _PUT:
            return _PUT[kind].format(v=v)
        self.use_record(kind)
        return f"encode_{kind}({v}, w)\n"

    def get(self, kind: str, t: str) -> str:
        if kind in _GET:
            return _GET[kind].format(t=t)
        self.use_record(kind)
        return f"r._pos = pos\n{t} = decode_{kind}(r)\npos = r._pos\n"

    # -- the n elements of a list, after its count ----------------------------

    def put_items(self, item: str) -> str:
        loop = "for x in items:\n" + _indent(self.put(item, "x"))
        bulk = _PUT_BULK.get(item)
        return bulk + _indent(loop) if bulk else loop

    def get_items(self, item: str, t: str) -> str:
        if item not in _GET:
            self.use_record(item)
            return (f"r._pos = pos\n{t} = [decode_{item}(r) "
                    f"for _ in range(n)]\npos = r._pos\n")
        loop = (f"{t} = []\nadd = {t}.append\nfor _ in range(n):\n"
                + _indent(self.get(item, "x") + "add(x)\n"))
        if item not in _GET_BULK:
            return loop
        # A slice never raises: a short one means a truncated frame
        # and falls to the loop, which runs off the end at once.
        return ("chunk = data[pos:pos + n]\n"
                "if n and len(chunk) == n and max(chunk) < 0x80:\n"
                f"    {t} = {_GET_BULK[item]}\n    pos += n\nelse:\n"
                + _indent(loop))

    # -- one field ---------------------------------------------------------

    def put_field(self, name: str, kind: str) -> str:
        head = f"# {name}: {kind}\n"
        is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
        is_rle = RLE_KIND.match(kind)
        if is_list:
            return (head + f"items = list(self.{name})\n"
                    + _PUT_COUNT.format(v="items", count="varint")
                    + self.put_items(is_list.group(1)))
        if is_rle:
            item = self.rle_item(is_rle.group(1))
            return (head + f"items = list(self.{name})\n"
                    + _PUT_COUNT.format(v="items", count="rle_count")
                    + "if n and items.count(items[0]) == n:\n"
                    + _indent("append(1)\nx = items[0]\n"
                              + self.put(item, "x"))
                    + "else:\n"
                    + _indent("append(0)\n" + self.put_items(item)))
        if is_map:
            key, value = is_map.groups()
            return (head + f"m = self.{name}\n"
                    + _PUT_COUNT.format(v="m", count="varint")
                    + "for k in (m if n < 2 else sorted(m)):\n"
                    + _indent(self.put(key, "k") + "x = m[k]\n"
                              + self.put(value, "x")))
        if kind == "mask":
            allowed = self.all_groups
            return (head + f"mask = self.{name}\n"
                    f"if mask & {~allowed:#x}:\n"
                    f"    w.mask(mask, {allowed:#04x})\n"
                    "else:\n    append(mask)\n")
        return head + f"v = self.{name}\n" + self.put(kind, "v")

    def get_field(self, name: str, kind: str, t: str) -> str:
        head = f"# {name}: {kind}\n"
        is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
        is_rle = RLE_KIND.match(kind)
        if is_list:
            return (head + _GET_COUNT.format(count="varint")
                    + self.get_items(is_list.group(1), t))
        if is_rle:
            item = self.rle_item(is_rle.group(1))
            return (
                head + _GET_COUNT.format(count="rle_count")
                + "flag = data[pos]\npos += 1\nif flag == 1:\n"
                + _indent(
                    "if not n:\n"
                    "    raise DecodeError("
                    '"constant-coded rle vector of no elements")\n'
                    + self.get(item, "x") + f"{t} = [x] * n\n")
                + "elif flag == 0:\n"
                + _indent(
                    self.get_items(item, t)
                    + f"if n and {t}.count({t}[0]) == n:\n"
                    "    raise DecodeError("
                    '"plain-coded rle vector of equal elements")\n')
                + "else:\n    raise DecodeError("
                '"rle flag octet must be 0 or 1, got %d" % flag)\n')
        if is_map:
            key, value = is_map.groups()
            return (head + _GET_COUNT.format(count="varint")
                    + f"{t} = {{}}\nfor _ in range(n):\n"
                    + _indent(self.get(key, "k") + self.get(value, "x")
                              + f"{t}[k] = x\n"))
        if kind == "mask":
            return (head + f"{t} = data[pos]\npos += 1\n"
                    f"if {t} & {~self.all_groups:#x}:\n"
                    f"    r._pos = pos - 1\n"
                    f"    r.mask({self.all_groups:#04x})\n")
        return head + self.get(kind, t)

    # -- the functions -----------------------------------------------------

    def runs(self):
        """``(group, [(index, name, kind), ...])`` per contiguous run of
        fields sharing a group column (None: always present)."""
        indexed = [(i, name, kind, group)
                   for i, (name, kind, group) in enumerate(self.fields)]
        return [(group, [entry[:3] for entry in run])
                for group, run in itertools.groupby(
                    indexed, key=lambda entry: entry[3])]

    def codec_source(self) -> str:
        name = self.cls.__name__
        encode = decode = ""
        for group, run in self.runs():
            put = "".join(self.put_field(f, kind) for _, f, kind in run)
            get = "".join(self.get_field(f, kind, f"f{i}")
                          for i, f, kind in run)
            if group is not None:
                absent = "".join(f"f{i} = {self.defaults[f]}\n"
                                 for i, f, _ in run)
                put = f"if mask & {group:#04x}:\n" + _indent(put)
                get = (f"if f{self.mask_index} & {group:#04x}:\n"
                       + _indent(get) + "else:\n" + _indent(absent))
            encode += put
            decode += get
        state = ", ".join(f'"{field}": f{i}'
                          for i, (field, _, _) in enumerate(self.fields))
        return (
            f"def encode(self, w):\n"
            f'    """Append this {name} to Writer *w* (generated)."""\n'
            f"    buf = w._parts\n    append = buf.append\n"
            + _indent(encode) +
            f"\n\ndef decode(r):\n"
            f'    """Read one {name} from Reader *r* (generated)."""\n'
            f"    data = r._data\n    pos = r._pos\n    try:\n"
            + _indent(decode, 2) +
            f"    except IndexError:\n"
            f'        raise DecodeError("truncated {name}")\n'
            f"    r._pos = pos\n    obj = new(cls)\n"
            f"    obj.__dict__ = {{{state}}}\n    return obj\n")

    def groups_source(self) -> str:
        """``group_values`` / ``changed_groups`` / ``merge`` of a class
        with a mask, from the same runs ``codec_source`` walks."""
        name = self.cls.__name__
        mask_field = self.fields[self.mask_index][0]
        slots: Dict[str, int] = {}
        changed = overlay = ""
        always = []
        for group, run in self.runs():
            fields = [f for _, f, kind in run if kind != "mask"]
            for f in fields:
                slots[f] = len(slots)
            differs = "\n        or ".join(
                f'seen[{slots[f]}] != d["{f}"]' for f in fields)
            remember = "".join(f'    seen[{slots[f]}] = d["{f}"]\n'
                               for f in fields)
            if group is None:
                always += fields
            else:
                overlay += f"if mask & {group:#04x}:\n" + "".join(
                    f'    state["{f}"] = d["{f}"]\n' for f in fields)
            if fields:
                bit = UNGROUPED if group is None else group
                changed += (f"if ({differs}):\n    mask |= {bit:#04x}\n"
                            + remember)
        values = ",\n            ".join(f'd["{f}"]' for f in slots)
        carried = "".join(f', "{f}": d["{f}"]' for f in always)
        return (
            f"\n\ndef group_values(rec):\n"
            f'    """What changed_groups remembers of a {name} '
            f'(generated)."""\n'
            f"    d = rec.__dict__\n    return [{values}]\n"
            f"\n\ndef changed_groups(seen, rec):\n"
            f'    """Bits of the groups where *rec* differs from the '
            f'group_values\n    list *seen*, which is brought up to date '
            f'in them (generated)."""\n'
            f"    d = rec.__dict__\n    mask = 0\n"
            + _indent(changed) + "    return mask\n"
            f"\n\ndef merge(stored, delta):\n"
            f'    """*stored* overlaid with the groups present in *delta*: '
            f'a new\n    {name}, or *delta* itself when it is complete '
            f'(generated)."""\n'
            f'    d = delta.__dict__\n    mask = d["{mask_field}"]\n'
            f"    if mask == {self.all_groups:#04x}:\n"
            f"        return delta\n"
            f"    state = {{**stored.__dict__{carried}}}\n"
            f'    state["{mask_field}"] |= mask\n'
            + _indent(overlay) +
            f"    obj = new(cls)\n    obj.__dict__ = state\n"
            f"    return obj\n")


def compile_codec(cls: type) -> type:
    """Class decorator: emit ``encode`` / ``decode`` (and, for a class
    with a ``mask``, the group functions) from ``cls.FIELDS``."""
    compiler = _ClassCompiler(cls)
    grouped = compiler.mask_index is not None
    source = compiler.codec_source()
    if grouped:
        source += compiler.groups_source()
    filename = f"<repro/core/protocol/schema {cls.__name__}>"
    # mtime None marks the entry as loader-provided: checkcache() keeps it.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    namespace = compiler.namespace
    exec(compile(source, filename, "exec"), namespace)
    names = ["encode", "decode"]
    if grouped:
        names += ["group_values", "changed_groups", "merge"]
        cls.ALL_GROUPS = compiler.all_groups
    for name in names:
        function = namespace[name]
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name,
                function if name == "encode" else staticmethod(function))
    cls.CODEC_SOURCE = source
    return cls
