"""The reachability gate's own logic, on a package of its own.

``tests/reachability.py`` runs the drivers for about a minute, so CI
runs it as a script; these checks build a tiny package under
``tmp_path``, call part of it under a profiler and feed the gate's
functions what was called.  They run no driver.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load("reachability_gate_under_test", HERE / "reachability.py")

MODULE = textwrap.dedent('''\
    import functools


    def called():
        return 1


    def never():
        return 2


    def interface():
        """Every concrete class overrides this."""


    def refusal():
        raise NotImplementedError


    def ellipsis():
        ...


    @functools.lru_cache(maxsize=None)
    def decorated():
        return 3


    def outer():
        def inner():
            return 4
        return 5


    class Klass:
        def method(self):
            return 6

        class Nested:
            def deep(self):
                return 7
''')


@pytest.fixture
def package(tmp_path):
    """``pkg/mod.py`` with ``called``, ``decorated`` and ``outer``
    called, and the code objects those calls ran."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text(MODULE)
    module = load("reachability_gate_pkg_mod", root / "mod.py")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        module.called()
        module.decorated()
        module.outer()
    finally:
        sys.setprofile(previous)
    return root, codes


def missing(package):
    root, codes = package
    return gate.unreached(codes, package=root, scopes=("mod.py",))


class TestUnreached:
    def test_declaration_only_defs_are_skipped(self, package):
        names = missing(package)
        for declaration in ("interface", "refusal", "ellipsis"):
            assert f"mod.py:{declaration}" not in names

    def test_decorated_def_is_matched_on_its_decorator_line(self, package):
        assert "mod.py:decorated" not in missing(package)

    def test_nested_defs_carry_qualnames(self, package):
        assert missing(package) == [
            "mod.py:never", "mod.py:outer.inner", "mod.py:Klass.method",
            "mod.py:Klass.Nested.deep"]

    def test_a_scope_may_be_a_package_directory(self, package):
        root, codes = package
        names = gate.unreached(codes, package=root.parent,
                               scopes=("pkg",))
        assert "pkg/mod.py:never" in names


class TestFindings:
    def test_a_class_line_covers_its_methods(self, package):
        allow = {"mod.py:never": "bench: x", "mod.py:outer": "bench: x",
                 "mod.py:Klass": "example: y"}
        assert gate.findings(missing(package), allow) == []

    def test_uncovered_names_are_printed(self, package):
        allow = {"mod.py:Klass.Nested": "example: y"}
        assert gate.findings(missing(package), allow) == [
            "mod.py:never", "mod.py:outer.inner", "mod.py:Klass.method"]

    def test_stale_line_is_reported(self, package):
        allow = {"mod.py:never": "bench: x", "mod.py:outer": "bench: x",
                 "mod.py:Klass": "example: y", "mod.py:called": "bench: z"}
        assert gate.findings(missing(package), allow) == [
            "mod.py:called  (stale allowlist line: nothing unreached)"]

    def test_a_race_line_is_never_stale(self, package):
        allow = {"mod.py:never": "bench: x", "mod.py:outer": "bench: x",
                 "mod.py:Klass": "example: y", "mod.py:called": "race: z"}
        assert gate.findings(missing(package), allow) == []

    def test_worker_lines_need_the_census(self, package):
        allow = {"mod.py:never": "worker: x", "mod.py:outer": "bench: x",
                 "mod.py:Klass": "example: y"}
        assert gate.findings(missing(package), allow) == []
        assert gate.findings(missing(package), allow,
                             census_held=False) == [
            "mod.py:never  (worker line: the cluster census did not hold)"]


class TestAllowlist:
    def test_lines_and_comments(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("# header\n\nmod.py:never  bench: why\n")
        assert gate.read_allowlist(path) == {"mod.py:never": "bench: why"}

    def test_a_line_without_a_reason_is_an_error(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("mod.py:never\n")
        with pytest.raises(SystemExit, match="allow.txt:1: mod.py:never "
                                             "has no reason"):
            gate.read_allowlist(path)

    def test_the_repository_allowlist_parses(self):
        assert gate.read_allowlist(gate.ALLOWLIST)
