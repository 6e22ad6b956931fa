"""docs/PROTOCOL.md must spell out every ``FIELDS`` table.

The spec once drifted from the code (``StatsReply.full`` went on the
wire in PR 10 and never reached section 8; ``BearerQosConfig`` was
documented with ``byte`` fields that are varints).  The layouts in the
document use the tables' own notation -- ``kind name, kind name`` with
a kind carried over commas (``varint rnti, source_cell``), records as
``Name: ...``, the fields of a group under a ``[0x02 CQI]`` heading --
so they can be read back and compared: every field of every message
and record must appear in its section, in wire order, with its kind
and under its group.
"""

import re
from pathlib import Path

import pytest

from repro.core.protocol.messages import (
    MESSAGE_TYPES,
    RETIRED_MESSAGE_TYPES,
    FlexRanMessage,
    StatsFlags,
)
from repro.core.protocol.wire import MAX_RLE_COUNT

from tests.core.schema_reference import RECORDS

DOC = (Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md").read_text()

SECTION = re.compile(r"(?m)^#{2,3} (.*)$")
CODE = re.compile(r"(?s)```(.*?)```|`([^`]*)`")
TOKEN = re.compile(r"map<\w+,\w+>|(?:list|rle)<\w+>|[A-Za-z_]\w*:?")
KIND = re.compile(r"map<\w+,\w+>$|(?:list|rle)<\w+>$|"
                  r"(?:varint|svarint|byte|bool|string|blob|mask|%s)$"
                  % "|".join(cls.__name__ for cls in RECORDS))
GROUP = re.compile(r"\[(0x[0-9A-Fa-f]{2}) (\w+)\]")


def sections():
    """heading -> body, for every ``##`` / ``###`` heading."""
    marks = list(SECTION.finditer(DOC))
    ends = [m.start() for m in marks[1:]] + [len(DOC)]
    return {m.group(1): DOC[m.end():end] for m, end in zip(marks, ends)}


def layouts(body):
    """Parse the code in *body*: ``{label: [(name, kind, group), ...]}``.

    Entries before the first ``Name:`` label belong to the section's
    own message(s) and are filed under ``None``.  *group* is the bit of
    the ``[0xNN NAME]`` heading the field stands under (``None`` above
    the first one; a label starts over), and NAME has to be that bit's
    ``StatsFlags`` name.
    """
    found = {None: []}
    for fenced, inline in CODE.findall(body):
        code = re.sub(r"--.*", "", fenced or inline)   # trailing comments
        code = re.sub(r"\([^)]*\)", "", code)          # (0 one-off | ...)
        label, kind, after_kind, group = None, None, False, None
        # [text, bit, name, text, bit, name, ..., text]
        parts = GROUP.split(code)
        for text, bit, flag in zip(parts[::3], [None, *parts[1::3]],
                                   [None, *parts[2::3]]):
            if bit is not None:
                group = int(bit, 16)
                assert StatsFlags(group).name == flag, (
                    f"[{bit} {flag}]: {bit} is {StatsFlags(group).name}")
            for token in TOKEN.findall(text):
                if token.endswith(":"):
                    label, group = token[:-1], None
                    found.setdefault(label, [])
                elif KIND.match(token) and not after_kind:
                    kind, after_kind = token, True
                else:  # a name -- also ``blob blob``: a kind after a kind
                    found[label].append((token, kind, group))
                    after_kind = False
    return found


def table(cls):
    """The class's own ``FIELDS`` rows as ``(name, kind, group bit)``."""
    return [(name, kind, int(*column) if column else None)
            for name, kind, *column in vars(cls).get("FIELDS", ())]


def assert_in_order(fields, documented, where):
    cursor = 0
    for entry in fields:
        assert entry in documented[cursor:], (
            f"{where}: {entry[1]} {entry[0]} (group {entry[2]}) is missing, "
            f"under another group or out of wire order; the document has "
            f"{documented}")
        cursor += documented[cursor:].index(entry) + 1


@pytest.mark.parametrize("cls", sorted(MESSAGE_TYPES.values(),
                                       key=lambda c: c.MSG_TYPE),
                         ids=lambda c: c.__name__)
def test_message_section_matches_its_fields(cls):
    wanted = f"{cls.MSG_TYPE} {cls.__name__}"
    matches = [body for heading, body in sections().items()
               if re.search(rf"\b{wanted}\b", heading)]
    assert len(matches) == 1, f"no single '### ... {wanted}' section"
    assert_in_order(table(cls), layouts(matches[0])[None], wanted)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_layout_matches_its_fields(cls):
    documented = layouts(DOC).get(cls.__name__)
    assert documented, f"no '{cls.__name__}: ...' layout in PROTOCOL.md"
    assert_in_order(table(cls), documented, cls.__name__)
    # ... and nothing stands under a group the table does not file it in.
    grouped = [entry for entry in documented if entry[2] is not None]
    assert grouped == [entry for entry in table(cls) if entry[2] is not None]


def test_frame_layout_is_type_byte_then_header():
    frame = layouts(sections()["Frame layout"])[None]
    assert frame[0] == ("msg_type", "byte", None)
    assert_in_order(table(FlexRanMessage), frame[1:], "Frame layout")


def test_primitives_table_lists_every_scalar_kind():
    primitives = sections()["Primitives"]
    for kind in ("varint", "svarint", "byte", "bool", "string", "blob",
                 "list<T>", "map<K,V>", "rle<T>", "mask"):
        assert f"| `{kind}` |" in primitives
    # The one bound a declared count is held to is stated with its value.
    assert f"(≤ {MAX_RLE_COUNT})" in primitives
    assert f"**{MAX_RLE_COUNT}**" in primitives


def test_message_table_lists_every_live_and_retired_id():
    rows = dict(re.findall(r"(?m)^\| (\d+) \| (.*?) \|",
                           sections()["Message types"]))
    for msg_type, cls in MESSAGE_TYPES.items():
        assert rows.pop(str(msg_type)) == f"`{cls.__name__}`"
    for msg_type, name in RETIRED_MESSAGE_TYPES.items():
        row = rows.pop(str(msg_type))
        assert row.startswith("*retired*")
        assert all(word in row for word in re.findall(r"\w+", name))
        assert any(re.search(rf"^{msg_type} — retired", heading)
                   for heading in sections())
    assert not rows, f"ids in the table that the registry lacks: {rows}"
