"""Outside-in span tracer: wraps the layers' public entry points.

Nothing under ``src/`` is edited.  A traced run replaces bound methods
on the deployment's own objects (instance attributes), two module
attributes (``codec.encode`` / ``codec.decode``) and, while the
deployment is built, ``SimClock.register`` so every phase callback is a
root span.  A span records name, start, end, parent and the TTI it
belongs to; per-name call counts, self time and inclusive time are
accumulated as spans close.  The spans of the most recent TTIs stay in
memory and are written as Chrome ``trace_event`` JSON at exit.

A target that no longer resolves (renamed in a later refactor) is
skipped and listed in :attr:`Tracer.missing`; the metrics that read it
are reported as ``null``.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict, deque
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.protocol import codec
from repro.net.clock import SimClock

from workloads import Deployment

KEEP_TTIS = 200
"""TTIs of spans kept for the Chrome trace."""

PHASE_PREFIX = "sim.phase."

Span = Tuple[int, float, float, int, int]  # name index, start, end, parent, tti


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self.span_count = 0
        self.gc_pause_s = 0.0
        self.gc_pause_max_s = 0.0
        self.gc_gen2 = 0
        self._index: Dict[str, int] = {}
        self._stack: List[list] = []
        self._tti = -1
        self._current: List[Span] = []
        self._recent: Deque[List[Span]] = deque(maxlen=KEEP_TTIS)
        self._gc_start = 0.0

    # -- span machinery ---------------------------------------------------

    def _slot(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """*fn* as a span named *name*; ``after(result, args)`` runs
        once the span has closed, to count work at the boundary."""
        idx = self._slot(name)
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]  # [name index, time spent in child spans]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                total_s[idx] += duration
                self._current.append((idx, start, end, parent, self._tti))
            if after is not None:
                after(result, args)
            return result
        return traced

    def begin_tti(self, tti: int) -> None:
        self.span_count += len(self._current)
        self._tti = tti
        self._current = []
        self._recent.append(self._current)

    # -- wrap targets -------------------------------------------------------

    def trace_phases(self) -> Callable[[], None]:
        """Make every callback registered on a ``SimClock`` a root span
        named after its phase; returns the function that undoes it."""
        try:
            original = SimClock.register
        except AttributeError:
            self.missing.append(PHASE_PREFIX + "*")
            return lambda: None
        tracer = self

        def register(clock, phase, fn):
            original(clock, phase, tracer.wrap(
                PHASE_PREFIX + getattr(phase, "name", str(phase)), fn))
        SimClock.register = register

        def restore() -> None:
            SimClock.register = original
        return restore

    def install(self, dep: Deployment) -> None:
        """Wrap the layers' entry points on *dep*'s objects."""
        sim = dep.sim
        master = sim.master
        counts = self.counts

        def encoded(frame, args):
            counts["encode_bytes"] += len(frame)

        def decoded(message, args):
            counts["decode_bytes"] += len(args[0])

        def applied(events, args):
            for message in args[1]:
                counts["rib_ue_updates"] += len(
                    getattr(message, "ue_reports", ()))

        def reported(enb):
            def after(replies, args):
                if replies:
                    attached = sum(len(c.ues) for c in enb.cells.values())
                    counts["full_records"] += attached * len(replies)
                    for reply in replies:
                        counts["ue_records"] += len(reply.ue_reports)
            return after

        def endpoints():
            return [ep for conn in sim.connections.values()
                    for ep in (conn.agent_side, conn.master_side)]

        targets = [
            ("traffic.epc_tick", lambda: [(sim.epc, "tick")]),
            ("agent.tick_tx", lambda: [(a, "tick_tx") for a in dep.agents]),
            ("agent.tick_rx", lambda: [(a, "tick_rx") for a in dep.agents]),
            ("agent.report_build",
             lambda: [(a.reports, "due_replies", reported(a.enb))
                      for a in dep.agents]),
            ("protocol.encode", lambda: [(codec, "encode", encoded)]),
            ("protocol.decode", lambda: [(codec, "decode", decoded)]),
            ("net.endpoint_send", lambda: [(ep, "send") for ep in endpoints()]),
            ("net.endpoint_recv",
             lambda: [(ep, "receive") for ep in endpoints()]),
            ("controller.tick",
             lambda: [(master, "tick")] if master is not None else []),
            ("controller.rib_apply",
             lambda: ([(master.updater, "apply_batch", applied)]
                      if master is not None else [])),
            ("apps.run",
             lambda: ([(reg.app, "run")
                       for reg in master.registry.registrations()]
                      if master is not None else [])),
            ("lte.plan", lambda: [(e, "plan") for e in dep.enbs]),
            ("lte.transmit", lambda: [(e, "transmit") for e in dep.enbs]),
            ("lte.build_context",
             lambda: [(e, "build_context") for e in dep.enbs]),
            ("lte.dl_sched", lambda: [(e.dl_scheduler, cell_id)
                                      for e in dep.enbs for cell_id in e.cells]),
            ("lte.refresh_cqi", lambda: [(cell, "refresh_cqi")
                                         for e in dep.enbs
                                         for cell in e.cells.values()]),
        ]
        for name, resolve in targets:
            self._slot(name)
            try:
                for owner, key, *after in resolve():
                    if isinstance(owner, dict):
                        owner[key] = self.wrap(name, owner[key], *after)
                    else:
                        setattr(owner, key,
                                self.wrap(name, getattr(owner, key), *after))
            except (AttributeError, KeyError, TypeError):
                self.missing.append(name)

    # -- garbage collector --------------------------------------------------

    def gc_callback(self, phase: str, info: dict) -> None:
        if not self.on:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        pause = perf_counter() - self._gc_start
        self.gc_pause_s += pause
        self.gc_pause_max_s = max(self.gc_pause_max_s, pause)
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def start(self) -> None:
        """Begin watching the collector; spans wait for :meth:`switch`."""
        gc.callbacks.append(self.gc_callback)

    def switch(self, on: bool) -> None:
        self.on = on

    def stop(self) -> None:
        self.on = False
        self.span_count += len(self._current)
        self._current = []
        gc.callbacks.remove(self.gc_callback)

    # -- readout ------------------------------------------------------------

    def self_time(self, name: str) -> Optional[float]:
        """Summed self time of span *name*; ``None`` if unresolved."""
        return None if name in self.missing else self.self_s[self._index[name]]

    def call_count(self, name: str) -> Optional[int]:
        return None if name in self.missing else self.calls[self._index[name]]

    def phase_totals(self) -> Dict[str, float]:
        """Inclusive seconds per clock phase name."""
        return {name[len(PHASE_PREFIX):]: self.total_s[idx]
                for name, idx in self._index.items()
                if name.startswith(PHASE_PREFIX)}

    def layer_self_s(self) -> float:
        """Self time of every span that is not a clock phase."""
        return sum(self.self_s[idx] for name, idx in self._index.items()
                   if not name.startswith(PHASE_PREFIX))

    def write_chrome_trace(self, path) -> None:
        """Write the retained spans as Chrome ``trace_event`` JSON."""
        spans = [span for tti_spans in self._recent for span in tti_spans]
        origin = min((s[1] for s in spans), default=0.0)
        events = [{
            "name": self.names[idx], "cat": self.names[idx].split(".")[0],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"tti": tti,
                     "parent": self.names[parent] if parent >= 0 else None},
        } for idx, start, end, parent, tti in spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
