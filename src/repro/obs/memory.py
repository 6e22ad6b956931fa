"""Deep size of an object graph: the memory series of Fig. 6 and Fig. 8."""

from __future__ import annotations

import sys
from typing import Iterator

_UNSET = object()


def _slot_names(cls: type) -> Iterator[str]:
    for base in cls.__mro__:
        slots = vars(base).get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__"):
                yield name


def deep_size(root: object) -> int:
    """``sys.getsizeof`` of *root* and of every object it reaches through
    dict keys and values, list / tuple / set items, an instance
    ``__dict__`` and the ``__slots__`` of its class and bases, each
    object counted once."""
    seen = set()
    size = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            state = getattr(obj, "__dict__", None)
            if isinstance(state, dict):
                stack.append(state)
            for name in _slot_names(type(obj)):
                value = getattr(obj, name, _UNSET)
                if value is not _UNSET:
                    stack.append(value)
    return size
