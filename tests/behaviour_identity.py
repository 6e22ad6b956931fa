"""Behaviour identity: what every pinned run did, one line per row.

The output is committed as ``tests/behaviour_identity.txt`` and
``tests/test_behaviour_identity.py`` recomputes it in Tier-1.  A change
that keeps simulated behaviour leaves the file unchanged; a change that
moves behaviour regenerates it::

    python tests/behaviour_identity.py > tests/behaviour_identity.txt

and the diff names the rows that moved, which is the change's claim
about behaviour.  The rows (:data:`ROWS`):

* every ``scenarios.CATALOGUE`` entry at its own TTI count, seed 0;
* seed 7 of the entries where it moves the row (``hetnet_optimized``,
  the four ``dash_*`` rows, ``feature_tour``).  On every other entry
  seed 7 prints the seed-0 line, so a row for it would pin nothing
  more;
* the four ttibudget workloads (``benchmarks/ttibudget/workloads.py``,
  imported read-only) at their smoke size, warm-up plus 300 TTIs, seed
  0, and ``scale_churn`` (fading, Poisson), the one that seed 7 moves,
  at seed 7 too;
* ``agentless_multicell``: two eNodeBs without agents, one with two
  carriers, under SCell activation and DRX.  No catalogue entry runs
  DRX without a master: moving the DRX inactivity boundary by one TTI
  moves this row and no other.

Each field after ``seed=`` and ``ttis=`` is a count or a 16-hex sha256
prefix of one part of what the run did:

* ``frames`` / ``frame_sha``: every frame ``codec.encode`` returned,
  length-prefixed and in order;
* ``assignments`` / ``assign_sha``: every downlink assignment an
  eNodeB applied, ``(tti, cell, rnti, n_prb, cqi_used, harq_pid,
  is_retx)``;
* one field per key of :func:`run_state` (``-`` where the run has
  none of it).

Only behaviour is digested.  Implementation counters (``change_seq``,
cache sizes) are left out, so a refactor that keeps behaviour never
needs a regeneration.  :func:`run_state` is also what the transport
conformance suite compares between the emulated and the TCP transport.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, List

ROOT = Path(__file__).resolve().parent.parent
# This checkout's package first; the ttibudget modules last, so that
# their generic names (run, spec, report) shadow nothing.
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks" / "ttibudget"))

from repro.core.protocol import codec  # noqa: E402
from repro.core.survive.snapshot import snapshot_rib  # noqa: E402
from repro.lte.cell import CellConfig  # noqa: E402
from repro.lte.enodeb import EnodeB  # noqa: E402
from repro.lte.mac.drx import DrxConfig  # noqa: E402
from repro.lte.phy.channel import FixedCqi, GaussMarkovSinr  # noqa: E402
from repro.lte.ue import Ue  # noqa: E402
from repro.net.clock import Phase  # noqa: E402
from repro.sim.scenarios import CATALOGUE, sinr_for_cqi  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402
from repro.traffic.generators import CbrSource, PoissonSource  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402

SEED_7_ENTRIES = ("hetnet_optimized", "dash_streaming", "dash_high_default",
                  "dash_low_default", "dash_low_assisted", "feature_tour")
"""Catalogue entries whose seed-7 run differs from their seed-0 run."""

WORKLOAD_TTIS = 300
"""TTIs a ttibudget workload runs after its warm-up."""


def run_state(sim: Simulation, harness=None) -> dict:
    """What *sim* did up to now, in simulated terms, as one comparable
    structure (JSON-able): the master's RIB and xid, every control
    link's and endpoint's counts, every EPC flow's bytes, every
    eNodeB's counters and, given the run's chaos *harness*, what fired
    and what was violated."""
    links, endpoints = {}, {}
    for agent_id in sorted(sim.connections):
        conn = sim.connections[agent_id]
        for name, link in (("ul", conn.channel.uplink),
                           ("dl", conn.channel.downlink)):
            links[f"{agent_id}.{name}"] = {
                "offered": (link.offered_messages, link.offered_bytes),
                "accepted": (link.total_messages, link.total_bytes),
                "delivered": (link.delivered_messages,
                              link.delivered_bytes),
                "dropped": (link.dropped_messages, link.dropped_bytes),
                "categories": {c: k.bytes
                               for c, k in sorted(link.counters.items())},
            }
        endpoints[agent_id] = (
            conn.agent_side.sent_messages, conn.agent_side.received_messages,
            conn.master_side.sent_messages,
            conn.master_side.received_messages)
    master = sim.master
    report = None if harness is None else harness.report()
    return {
        "rib": None if master is None else snapshot_rib(master.rib),
        "links": links or None,
        "endpoints": endpoints or None,
        "xid": None if master is None else master._xid,
        "flows": [(direction, f.enb.enb_id, f.rnti, astuple(f.stats))
                  for direction, flows in (("dl", sim.epc._downlink),
                                           ("ul", sim.epc._uplink))
                  for f in flows] or None,
        "enbs": [(enb_id, astuple(enb.counters))
                 for enb_id, enb in sorted(sim.enbs.items())] or None,
        "chaos": None if report is None else {
            "fired": report.fired,
            "violations": [(v.tti, v.invariant, v.detail)
                           for v in report.violations]},
    }


class Digest:
    """sha256 over a sequence of records, and their count."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.count = 0

    def add(self, record: bytes) -> None:
        self._sha.update(record)
        self.count += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()[:16]


@contextmanager
def record_assignments() -> Iterator[Digest]:
    """Digest every downlink assignment an eNodeB applies, on entry to
    ``EnodeB._transmit_dl``."""
    digest = Digest()
    transmit_dl = EnodeB._transmit_dl

    def recording(enb, cell_id, a, tti):
        digest.add(repr((tti, cell_id, a.rnti, a.n_prb, a.cqi_used,
                         a.harq_pid, a.is_retx)).encode())
        return transmit_dl(enb, cell_id, a, tti)

    EnodeB._transmit_dl = recording
    try:
        yield digest
    finally:
        EnodeB._transmit_dl = transmit_dl


@contextmanager
def record_frames() -> Iterator[Digest]:
    """Digest every frame ``codec.encode`` returns, length-prefixed."""
    digest = Digest()
    encode = codec.encode

    def hashing_encode(message):
        frame = encode(message)
        digest.add(len(frame).to_bytes(4, "big") + frame)
        return frame

    codec.encode = hashing_encode
    try:
        yield digest
    finally:
        codec.encode = encode


def agentless_multicell(seed: int = 0):
    """Two agent-less eNodeBs, the first with carriers 10 and 11: fading
    and static channels, Poisson downlink and CBR uplink load, an SCell
    activated and released and DRX set and cleared, all scheduled by the
    built-in round robin and uplink split."""
    sim = Simulation()
    enbs = [sim.add_enb(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)],
                        seed=seed + 1),
            sim.add_enb(2, seed=seed + 2)]
    ues = []
    for e, enb in enumerate(enbs):
        for i in range(6):
            stream = seed + 10 * e + i
            channel = (FixedCqi(4 + 2 * i) if i % 2 else GaussMarkovSinr(
                sinr_for_cqi(5 + i), sigma_db=3.0, seed=stream))
            ue = Ue(f"{e}{i:03d}", channel)
            cells = sorted(enb.cells)
            sim.add_ue(enb, ue, cell_id=cells[i % len(cells)])
            sim.add_downlink_traffic(
                enb, ue, PoissonSource(2.0, seed=stream, start_tti=20))
            if i < 3:
                sim.add_uplink_traffic(enb, ue, CbrSource(0.3, start_tti=30))
            ues.append(ue)
    first, drx_ue = enbs[0], ues[1]
    drx = DrxConfig(cycle_ttis=20, on_duration_ttis=4, inactivity_ttis=2)
    script = {
        80: lambda tti: first.activate_scell(ues[0].rnti, 11, tti=tti),
        120: lambda tti: first.set_drx(drx_ue.rnti, drx),
        200: lambda tti: first.set_drx(drx_ue.rnti, None),
        240: lambda tti: first.deactivate_scell(ues[0].rnti, 11),
    }
    sim.clock.register(
        Phase.TRAFFIC, lambda tti: script.get(tti, lambda _: None)(tti))
    return SimpleNamespace(sim=sim)


@dataclass(frozen=True)
class Row:
    name: str
    seed: int
    ttis: int
    build: Callable[[int], object]  # seed -> a handle with ``.sim``

    @property
    def id(self) -> str:
        return f"{self.name}-{self.seed}"


def _workload(name: str) -> Callable[[int], object]:
    workload = WORKLOADS[name]
    return lambda seed: workload.build(seed * SEED_STRIDE,
                                       workload.smoke_size)


def _rows() -> List[Row]:
    rows = []
    for name, (build, ttis) in CATALOGUE.items():
        for seed in (0, 7) if name in SEED_7_ENTRIES else (0,):
            rows.append(Row(name, seed, ttis,
                            lambda seed, build=build: build(seed=seed)))
    for name, workload in WORKLOADS.items():
        ttis = workload.smoke_size.warmup_ttis + WORKLOAD_TTIS
        for seed in (0, 7) if name == "scale_churn" else (0,):
            rows.append(Row(f"ttibudget.{name}", seed, ttis,
                            _workload(name)))
    rows.append(Row("agentless_multicell", 0, 300, agentless_multicell))
    return rows


ROWS = _rows()


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_row(row: Row) -> str:
    """The table line of *row*: run it and digest what it did."""
    with record_frames() as frames, record_assignments() as assignments:
        handle = row.build(row.seed)
        try:
            handle.sim.run(row.ttis)
        finally:
            handle.sim.close()
    state = run_state(handle.sim, getattr(handle, "harness", None))
    fields = [f"frames={frames.count}", f"frame_sha={frames.hexdigest()}",
              f"assignments={assignments.count}",
              f"assign_sha={assignments.hexdigest()}"]
    fields += [f"{key}={'-' if value is None else _sha(value)}"
               for key, value in state.items()]
    return f"{row.name} seed={row.seed} ttis={row.ttis} " + " ".join(fields)


def main() -> None:
    for row in ROWS:
        print(run_row(row), flush=True)


if __name__ == "__main__":
    main()
