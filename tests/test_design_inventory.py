"""DESIGN.md section 2 lists every module under ``src/repro/``, and
nothing else: one line per module, a directory line per package (its
``__init__.py``)."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def inventory():
    """Paths (relative to ``src/repro``) the section 2 block lists."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 2. Package inventory", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines[0] == "src/repro/"
    listed = set()
    stack = [(-1, "")]  # (indent, directory)
    for line in lines[1:]:
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        name = line.split()[0]
        while stack[-1][0] >= indent:
            stack.pop()
        path = stack[-1][1] + name
        if name.endswith("/"):
            stack.append((indent, path))
            listed.add(path + "__init__.py")
        else:
            assert name.endswith(".py"), line
            listed.add(path)
    return listed


def test_every_listed_module_exists():
    missing = sorted(p for p in inventory() if not (PACKAGE / p).is_file())
    assert missing == []


def test_every_module_is_listed():
    modules = {p.relative_to(PACKAGE).as_posix()
               for p in PACKAGE.rglob("*.py")} - {"__init__.py"}
    assert sorted(modules - inventory()) == []
