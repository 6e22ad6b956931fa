"""Reference kernel: a clock that runs at the host's current speed.

The boxes this benchmark runs on are shared virtual machines whose
single-thread speed moves by a factor of 1.4 to 1.9 for seconds to
minutes at a time (measured on the sizing box: a pure-Python loop
alternating between 14 ms and 20 ms, the simulator between 4.3 and
7.9 ms per TTI, with no steal time reported).  Raw host times taken ten
seconds apart therefore disagree by more than any bound worth setting.

So every timed stretch is bracketed by readings of a small fixed
kernel that does what the simulator does (dict lookups, attribute
updates, method calls, tuple and list building) and is independent of
the repository's code.  A stretch's host time is scaled by
``NOMINAL_S`` over the mean of the two readings around it: the time it
would have taken had the kernel run at its nominal speed.  README.md
has the sizing data (spread between 10-second windows cut from 23-49 %
to 4-6 %).
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import List, Sequence, Tuple

NOMINAL_S = 0.000165
"""Kernel time in the sizing box's fast state.  The constant only fixes
the scale of the reported times; comparisons between runs do not depend
on it."""

CELLS = 256
STEPS = 1_000
PASSES = 3
"""A pass is ``STEPS`` operations over ``CELLS`` small objects; a
reading is the fastest of ``PASSES`` timed passes (about 0.7 ms)."""


class _Cell:
    __slots__ = ("count", "value")

    def __init__(self, value: int) -> None:
        self.count = 0
        self.value = value

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


class RefClock:
    """The kernel's working set (a few tens of kilobytes) is pulled into
    cache by an untimed pass first: a cold kernel would run at a speed
    set by how much the simulator evicted, and so would reward or punish
    changes to the simulator's memory footprint."""

    def __init__(self) -> None:
        self._table = {i: _Cell(i) for i in range(CELLS)}
        rng = random.Random(1)
        self._order = [rng.randrange(CELLS) for _ in range(STEPS)]

    def _pass(self) -> float:
        table = self._table
        out: List[Tuple[int, int]] = []
        total = 0
        start = perf_counter()
        for index in self._order:
            cell = table[index]
            total += cell.bump(1) * index % 7
            out.append((index, cell.value + total))
        return perf_counter() - start

    def read(self) -> float:
        """Seconds one kernel pass takes right now: the fastest of a
        few, so an interrupt during one of them does not count."""
        self._pass()
        return min(self._pass() for _ in range(PASSES))


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns host time measured between two kernel
    readings into time at nominal kernel speed."""
    return 2.0 * NOMINAL_S / (before_s + after_s)


def mean_scale(blocks: Sequence[Tuple[float, Sequence[float]]]) -> float:
    """Time-weighted mean factor over ``(factor, samples)`` blocks: what
    a total measured across all of them is to be multiplied by."""
    wall = sum(sum(samples) for _, samples in blocks)
    return sum(factor * sum(samples) for factor, samples in blocks) / wall
