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
``blob``, the name of an already compiled record class, ``list<kind>``
and ``map<kind,kind>`` (scalar keys and values, keys sorted on the
wire).  ``FIELDS`` of base classes come first, so every message starts
with the ``header`` that :class:`FlexRanMessage` declares.

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

import dataclasses
import linecache
import re
import sys
from typing import Dict, List, Tuple

from repro.core.protocol.errors import DecodeError

LIST_KIND = re.compile(r"list<(\w+)>$")
MAP_KIND = re.compile(r"map<(\w+),(\w+)>$")

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

# Element counts are never negative and rarely exceed 127.
_PUT_COUNT = """\
n = len({v})
if n < 0x80:
    append(n)
else:
    w.varint(n)
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
    n = r.varint()
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


def wire_fields(cls: type) -> List[Tuple[str, str]]:
    """``(name, kind)`` pairs of *cls* in wire order, base classes first."""
    return [entry for base in reversed(cls.__mro__)
            for entry in vars(base).get("FIELDS", ())]


def _indent(code: str, levels: int = 1) -> str:
    pad = "    " * levels
    return "".join(pad + line for line in code.splitlines(True))


class _ClassCompiler:
    """Emits the ``encode`` / ``decode`` source of one class."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.module = vars(sys.modules[cls.__module__])
        self.fields = wire_fields(cls)
        declared = [f.name for f in dataclasses.fields(cls)]
        if sorted(declared) != sorted(name for name, _ in self.fields):
            raise TypeError(
                f"{cls.__name__}.FIELDS {[n for n, _ in self.fields]} does "
                f"not cover its dataclass fields {declared}")
        self.namespace: Dict[str, object] = {
            "__name__": cls.__module__, "cls": cls, "new": object.__new__,
            "DecodeError": DecodeError}

    def use_record(self, kind: str) -> None:
        """Bind the codec of the compiled record class *kind* names."""
        record = self.module.get(kind)
        if not isinstance(record, type) or "CODEC_SOURCE" not in vars(record):
            raise TypeError(
                f"{self.cls.__name__}: unknown field kind {kind!r} (not a "
                f"scalar kind or a record compiled earlier in the module)")
        self.namespace[f"encode_{kind}"] = vars(record)["encode"]
        self.namespace[f"decode_{kind}"] = record.decode

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

    # -- one field ---------------------------------------------------------

    def put_field(self, name: str, kind: str) -> str:
        head = f"# {name}: {kind}\n"
        is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
        if is_list:
            item = is_list.group(1)
            loop = "for x in items:\n" + _indent(self.put(item, "x"))
            bulk = _PUT_BULK.get(item)
            return (head + f"items = list(self.{name})\n"
                    + _PUT_COUNT.format(v="items")
                    + (bulk + _indent(loop) if bulk else loop))
        if is_map:
            key, value = is_map.groups()
            return (head + f"m = self.{name}\n" + _PUT_COUNT.format(v="m")
                    + "for k in (m if n < 2 else sorted(m)):\n"
                    + _indent(self.put(key, "k") + "x = m[k]\n"
                              + self.put(value, "x")))
        return head + f"v = self.{name}\n" + self.put(kind, "v")

    def get_field(self, name: str, kind: str, t: str) -> str:
        head = f"# {name}: {kind}\n"
        is_list, is_map = LIST_KIND.match(kind), MAP_KIND.match(kind)
        if is_list:
            item = is_list.group(1)
            code = head + _GET_COUNT
            if item not in _GET:
                self.use_record(item)
                return (code + f"r._pos = pos\n{t} = [decode_{item}(r) "
                        f"for _ in range(n)]\npos = r._pos\n")
            loop = (f"{t} = []\nadd = {t}.append\nfor _ in range(n):\n"
                    + _indent(self.get(item, "x") + "add(x)\n"))
            if item not in _GET_BULK:
                return code + loop
            # A slice never raises: a short one means a truncated frame
            # and falls to the loop, which runs off the end at once.
            return (code + "chunk = data[pos:pos + n]\n"
                    "if n and len(chunk) == n and max(chunk) < 0x80:\n"
                    f"    {t} = {_GET_BULK[item]}\n    pos += n\nelse:\n"
                    + _indent(loop))
        if is_map:
            key, value = is_map.groups()
            return (head + _GET_COUNT + f"{t} = {{}}\nfor _ in range(n):\n"
                    + _indent(self.get(key, "k") + self.get(value, "x")
                              + f"{t}[k] = x\n"))
        return head + self.get(kind, t)

    # -- the pair ----------------------------------------------------------

    def source(self) -> str:
        name = self.cls.__name__
        encode = "".join(self.put_field(*entry) for entry in self.fields)
        decode = "".join(self.get_field(field, kind, f"f{i}")
                         for i, (field, kind) in enumerate(self.fields))
        state = ", ".join(f'"{field}": f{i}'
                          for i, (field, _) in enumerate(self.fields))
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


def compile_codec(cls: type) -> type:
    """Class decorator: emit ``encode`` / ``decode`` from ``cls.FIELDS``."""
    compiler = _ClassCompiler(cls)
    source = compiler.source()
    filename = f"<repro/core/protocol/schema {cls.__name__}>"
    # mtime None marks the entry as loader-provided: checkcache() keeps it.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    namespace = compiler.namespace
    exec(compile(source, filename, "exec"), namespace)
    encode, decode = namespace["encode"], namespace["decode"]
    encode.__qualname__ = f"{cls.__qualname__}.encode"
    decode.__qualname__ = f"{cls.__qualname__}.decode"
    cls.encode = encode
    cls.decode = staticmethod(decode)
    cls.CODEC_SOURCE = source
    return cls
