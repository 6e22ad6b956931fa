"""The behaviour identity table holds: every row of
``tests/behaviour_identity.py`` recomputes to its committed line in
``tests/behaviour_identity.txt``.

A failure's test id is the row and its message names the fields that
moved.  A change that moves behaviour on purpose regenerates the table
(``python tests/behaviour_identity.py > tests/behaviour_identity.txt``)
and says why each moved row moved.
"""

from pathlib import Path

import pytest

from tests.behaviour_identity import ROWS, run_row

TABLE = Path(__file__).with_name("behaviour_identity.txt")
REGENERATE = "python tests/behaviour_identity.py > tests/behaviour_identity.txt"


def parse(line):
    """``(row id, {field: value})`` of one table line."""
    name, *fields = line.split(" ")
    values = dict(field.split("=", 1) for field in fields)
    return f"{name}-{values['seed']}", values


def committed():
    """Row id -> fields of every committed line, in file order."""
    return dict(parse(line) for line in TABLE.read_text().splitlines())


def test_the_table_has_one_line_per_row_in_order():
    assert list(committed()) == [row.id for row in ROWS], \
        f"the table's rows are not the generator's: {REGENERATE}"


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_row_is_pinned(row):
    table = committed()
    assert row.id in table, f"{row.id} has no line: {REGENERATE}"
    pinned, (_, now) = table[row.id], parse(run_row(row))
    moved = [field for field in now if now[field] != pinned.get(field)]
    assert not moved, (
        f"{row.id} moved: {', '.join(moved)}.  If the change means to "
        f"move behaviour: {REGENERATE}")


def test_tcp_rows_equal_their_emulated_siblings():
    """A ``*_tcp`` catalogue entry is its sibling over the lockstep TCP
    transport: every digest of the run is the same."""
    table = committed()
    pairs = [(row_id, row_id.replace("_tcp-", "-"))
             for row_id in table if "_tcp-" in row_id]
    assert pairs
    for tcp, emulated in pairs:
        assert table[tcp] == table[emulated], (tcp, emulated)
