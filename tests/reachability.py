"""Every mechanism is reached by a deployment, or it is allowlisted.

The catalogue (``repro.sim.scenarios.CATALOGUE``) is the measure of what
the platform contains.  This script installs a profiler before the
first ``repro`` import, runs every catalogue entry at its default TTIs,
and matches the code objects that were called to the ``def`` statements
under ``lte/``, ``core/``, ``traffic/`` and ``net/``, by file, line and
name (a decorated ``def``'s code starts on its first decorator's line).
A ``def`` that only declares an interface or a refusal (its body is
``pass``, ``...`` or one ``raise``) is not counted.

It prints, as ``path:qualname`` relative to ``src/repro``:

* every function that no entry called and no line of
  ``tests/reachability_allowlist.txt`` names;
* every allowlist line that names no unreached function (stale).

It exits 1 when it printed anything.  An allowlist line is
``path:qualname  reason``: the reason names the caller outside the
catalogue that keeps the code (``repro serve``, a northbound route, a
paper bench, ...); a line that names a class or a function covers
everything defined inside it.  Being called by tests alone is never a
reason: such code is deleted with its tests.

It is not a pytest module (a full run takes about a minute); CI runs
it::

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import sys
import threading

CALLED = set()


def _profile(frame, event, arg):
    if event == "call":
        CALLED.add(frame.f_code)


# Before any repro import, so module-level calls are seen too.
sys.setprofile(_profile)
threading.setprofile(_profile)

import ast  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Iterator, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
ALLOWLIST = HERE / "reachability_allowlist.txt"
SCOPES = ("lte", "core", "traffic", "net")


def is_declaration(node: ast.FunctionDef) -> bool:
    """Whether *node* only declares an interface or a refusal (its body,
    after a docstring, is ``pass``, ``...`` or one ``raise``): a method
    every concrete class overrides, or a guard that exists to reject a
    call, is no mechanism of its own."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    return isinstance(stmt, ast.Raise)


def definitions(path: Path) -> Iterator[Tuple[int, int, str, str]]:
    """``(def line, first decorator line, name, qualname)`` of every
    function defined in *path*, nested ones included, that is not an
    interface declaration (:func:`is_declaration`)."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                if not is_declaration(child):
                    yield child.lineno, first, child.name, qualname
                yield from walk(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def read_allowlist(path: Path) -> Dict[str, str]:
    """``{path:qualname: reason}``; a line without a reason is an error."""
    entries: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path.name}:{number}: {name} has no reason")
        entries[name] = reason.strip()
    return entries


def run_catalogue() -> None:
    """Run every entry at its default TTIs."""
    from repro.sim.scenarios import CATALOGUE

    for build, ttis in CATALOGUE.values():
        sim = build(seed=0).sim
        try:
            sim.run(ttis)
        finally:
            sim.close()


def unreached() -> List[str]:
    """``path:qualname`` of every in-scope function no call reached."""
    called = {(code.co_filename, code.co_firstlineno, code.co_name)
              for code in CALLED}
    missing = []
    for scope in SCOPES:
        for path in sorted((PACKAGE / scope).rglob("*.py")):
            filename = str(path.resolve())
            for line, first, name, qualname in definitions(path):
                if ((filename, line, name) in called
                        or (filename, first, name) in called):
                    continue
                missing.append(
                    f"{path.relative_to(PACKAGE).as_posix()}:{qualname}")
    return missing


def covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def main() -> int:
    run_catalogue()
    sys.setprofile(None)
    threading.setprofile(None)

    allowlist = read_allowlist(ALLOWLIST)
    missing = unreached()
    printed = 0
    for name in missing:
        if not any(covers(entry, name) for entry in allowlist):
            print(name)
            printed += 1
    for entry in allowlist:
        if not any(covers(entry, name) for name in missing):
            print(f"{entry}  (stale allowlist line: nothing unreached)")
            printed += 1
    print(f"# {len(missing)} unreached, {len(allowlist)} allowlist lines, "
          f"{printed} printed", file=sys.stderr)
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())
