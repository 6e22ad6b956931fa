"""Calls a stretch of the program makes, counted one way for every test.

The count is the ttibudget benchmark's (``profile_calls`` in
``benchmarks/ttibudget/child.py``): every Python function call, and
every built-in call charged to its caller.  The profiler's raw entries
are read, not ``pstats``, which keys functions by (file, line, name):
under that key every generated dataclass ``__init__`` ("<string>", 2)
collides and all but one are dropped.

A count has no spread on a given interpreter, so a ceiling read through
:class:`Calls` is the count measured on CPython 3.11, asserted with
``<=`` and no slack; a change that raises one shows it as a diff line.
A failing assertion that passes the :class:`Calls` as its message
prints the count per layer -- the package directory under
``src/repro`` ("other" outside it) -- and the functions that made the
most calls.

cProfile does not see numpy's Cython methods: a ``Generator.random()``
call leaves no entry.  :func:`expose_draws` puts a proxy in place of an
object's generators whose every method call is one Python call, so a
draw taken once per block, packet or UE is counted.
"""

from __future__ import annotations

import cProfile
import gc
import os
from collections import Counter
from typing import Any, Callable, Tuple

import numpy as np

import repro

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _where(code) -> Tuple[str, str]:
    """(layer, function name) of a Python code object."""
    filename = code.co_filename
    if filename.startswith(_SRC):
        path = filename[len(_SRC):]
        layer = path.split(os.sep, 1)[0] if os.sep in path else "repro"
    else:
        path, layer = os.path.basename(filename), "other"
    return layer, f"{path}:{code.co_qualname}"


class Calls:
    """The calls made inside every window :meth:`run` opened."""

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, counted; returns its result.  The
        cyclic collector is off meanwhile: a collection would charge the
        window for finalizers of whatever earlier code left behind."""
        collecting = gc.isenabled()
        gc.disable()
        self._profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self._profiler.disable()
            if collecting:
                gc.enable()

    def _tally(self) -> Tuple[Counter, Counter, Counter]:
        functions, builtins, layers = Counter(), Counter(), Counter()
        for entry in self._profiler.getstats():
            if isinstance(entry.code, str):
                continue  # a built-in: counted below, under its caller
            layer, name = _where(entry.code)
            functions[name] += entry.callcount
            layers[layer] += entry.callcount
            for callee in entry.calls or ():
                if isinstance(callee.code, str):
                    builtins[callee.code] += callee.callcount
                    layers[layer] += callee.callcount
        return functions, builtins, layers

    def functions(self) -> Counter:
        """Calls per Python function, ``"lte/enodeb.py:EnodeB.tick"``."""
        return self._tally()[0]

    def builtins(self) -> Counter:
        """Calls per built-in, named as the profiler names it:
        ``"<built-in method builtins.len>"``,
        ``"<method 'append' of 'list' objects>"``."""
        return self._tally()[1]

    def layers(self) -> Counter:
        """Calls per layer; a built-in's count is its caller's layer's."""
        return self._tally()[2]

    @property
    def total(self) -> int:
        return sum(self.layers().values())

    def __str__(self) -> str:
        functions, builtins, layers = self._tally()
        functions.update(builtins)
        by_layer = ", ".join(f"{layer} {n}" for layer, n in layers.most_common())
        top = "\n".join(f"  {n:8d}  {name}"
                        for name, n in functions.most_common(12))
        return (f"{sum(layers.values())} calls by layer: {by_layer}\n"
                f"most called:\n{top}")


def count(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Calls:
    """The calls ``fn(*args, **kwargs)`` makes."""
    calls = Calls()
    calls.run(fn, *args, **kwargs)
    return calls


class _Draws:
    """A generator whose every method call is one Python call; its other
    attributes are the generator's own."""

    def __init__(self, gen: np.random.Generator) -> None:
        for name in dir(gen):
            if not name.startswith("_"):
                value = getattr(gen, name)
                setattr(self, name, _one_call(value) if callable(value) else value)


def _one_call(method: Callable[..., Any]) -> Callable[..., Any]:
    def draw(*args: Any, **kwargs: Any) -> Any:
        return method(*args, **kwargs)
    return draw


def expose_draws(obj: object) -> None:
    """Make every draw from *obj*'s generators a counted call: each
    attribute holding an ``np.random.Generator``, whatever its name, is
    replaced by a proxy drawing the same values."""
    for name, value in list(vars(obj).items()):
        if isinstance(value, np.random.Generator):
            setattr(obj, name, _Draws(value))
