"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one table or figure of the paper
(see DESIGN.md's experiment index).  Helpers here render the regenerated
rows/series in a uniform format so `pytest benchmarks/ --benchmark-only`
output can be compared against the paper side by side.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Sequence

collect_ignore_glob: List[str] = []


def fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Render one reproduced table/figure as an aligned text table."""
    rows = [[fmt_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join("-" * w for w in widths)
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print(line)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(line)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def sample_tti_walltime(sim, *, warmup_ttis: int, run_ttis: int) -> List[float]:
    """Per-TTI wall-clock samples (microseconds) over *run_ttis* TTIs."""
    if warmup_ttis > 0:
        sim.run(warmup_ttis)
    perf_counter = time.perf_counter
    samples: List[float] = []
    for _ in range(run_ttis):
        t0 = perf_counter()
        sim.run(1)
        samples.append((perf_counter() - t0) * 1e6)
    return samples
