"""docs/PROTOCOL.md must spell out every ``FIELDS`` table.

The spec once drifted from the code (``StatsReply.full`` went on the
wire in PR 10 and never reached section 8; ``BearerQosConfig`` was
documented with ``byte`` fields that are varints).  The layouts in the
document use the tables' own notation -- ``kind name, kind name`` with
a kind carried over commas (``varint rnti, source_cell``), records as
``Name: ...`` -- so they can be read back and compared: every field of
every message and record must appear in its section, in wire order,
with its kind.
"""

import re
from pathlib import Path

import pytest

from repro.core.protocol.messages import MESSAGE_TYPES, FlexRanMessage

from tests.core.schema_reference import RECORDS

DOC = (Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md").read_text()

SECTION = re.compile(r"(?m)^#{2,3} (.*)$")
CODE = re.compile(r"(?s)```(.*?)```|`([^`]*)`")
TOKEN = re.compile(r"map<\w+,\w+>|list<\w+>|[A-Za-z_]\w*:?")
KIND = re.compile(r"map<\w+,\w+>$|list<\w+>$|"
                  r"(?:varint|svarint|byte|bool|string|blob|%s)$"
                  % "|".join(cls.__name__ for cls in RECORDS))


def sections():
    """heading -> body, for every ``##`` / ``###`` heading."""
    marks = list(SECTION.finditer(DOC))
    ends = [m.start() for m in marks[1:]] + [len(DOC)]
    return {m.group(1): DOC[m.end():end] for m, end in zip(marks, ends)}


def layouts(body):
    """Parse the code in *body*: ``{label: [(name, kind), ...]}``.

    Pairs before the first ``Name:`` label belong to the section's own
    message(s) and are filed under ``None``.
    """
    found = {None: []}
    for fenced, inline in CODE.findall(body):
        code = re.sub(r"--.*", "", fenced or inline)   # trailing comments
        code = re.sub(r"\([^)]*\)", "", code)          # (0 one-off | ...)
        label, kind, after_kind = None, None, False
        for token in TOKEN.findall(code):
            if token.endswith(":"):
                label = token[:-1]
                found.setdefault(label, [])
            elif KIND.match(token) and not after_kind:
                kind, after_kind = token, True
            else:  # a name -- also ``blob blob``: a kind right after a kind
                found[label].append((token, kind))
                after_kind = False
    return found


def assert_in_order(fields, documented, where):
    cursor = 0
    for entry in fields:
        assert tuple(entry) in documented[cursor:], (
            f"{where}: {entry[1]} {entry[0]} is missing or out of wire order; "
            f"the document has {documented}")
        cursor += documented[cursor:].index(tuple(entry)) + 1


@pytest.mark.parametrize("cls", sorted(MESSAGE_TYPES.values(),
                                       key=lambda c: c.MSG_TYPE),
                         ids=lambda c: c.__name__)
def test_message_section_matches_its_fields(cls):
    wanted = f"{cls.MSG_TYPE} {cls.__name__}"
    matches = [body for heading, body in sections().items()
               if re.search(rf"\b{wanted}\b", heading)]
    assert len(matches) == 1, f"no single '### ... {wanted}' section"
    assert_in_order(vars(cls).get("FIELDS", ()), layouts(matches[0])[None],
                    wanted)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_layout_matches_its_fields(cls):
    documented = layouts(DOC).get(cls.__name__)
    assert documented, f"no '{cls.__name__}: ...' layout in PROTOCOL.md"
    assert_in_order(cls.FIELDS, documented, cls.__name__)


def test_frame_layout_is_type_byte_then_header():
    frame = layouts(sections()["Frame layout"])[None]
    assert frame[0] == ("msg_type", "byte")
    assert_in_order(FlexRanMessage.FIELDS, frame[1:], "Frame layout")


def test_primitives_table_lists_every_scalar_kind():
    table = sections()["Primitives"]
    for kind in ("varint", "svarint", "byte", "bool", "string", "blob",
                 "list<T>", "map<K,V>"):
        assert f"| `{kind}` |" in table
