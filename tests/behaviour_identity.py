"""Behaviour identity of the four ttibudget workloads, for one checkout.

A change that claims to keep simulated behaviour must leave every line
this script prints unchanged.  Per workload and seed it runs the
full-size ttibudget deployment (``WORKLOADS[name].build(seed * 1000,
size)``) through its warm-up plus ``--ttis`` TTIs and prints:

* ``frames`` / ``frame_sha``: count and sha256 of every frame
  ``codec.encode`` returned, length-prefixed and in order;
* ``fingerprint``: ``checks.fingerprint`` (link counters, delivered
  bytes, HARQ outcomes, RIB census);
* ``change_seq``: ``sum(enb.change_seq)``;
* ``rib_sha``: sha256 of the master's RIB snapshot (``-`` without one);
* ``assignments`` / ``assign_sha``: count and sha256 of every applied
  downlink assignment ``(tti, cell, rnti, n_prb, cqi_used, harq_pid,
  is_retx)``, then of every eNodeB's counters.

It imports the package and the workloads of the checkout named by
``--root`` (default: the one it lives in), so one copy of the script
compares any two checkouts::

    python tests/behaviour_identity.py > new.txt
    python tests/behaviour_identity.py --root ../parent > old.txt
    diff old.txt new.txt

It is not a pytest module; ``tests/sim/test_wire_identity.py`` uses
:func:`record_frames` and :func:`record_assignments` to pin small runs
in Tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent


class Digest:
    """sha256 over a sequence of records, and their count."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.count = 0

    def add(self, record: bytes) -> None:
        self._sha.update(record)
        self.count += 1

    def hexdigest(self, trailer: bytes = b"") -> str:
        """The digest of the records, then of *trailer*."""
        sha = self._sha.copy()
        sha.update(trailer)
        return sha.hexdigest()


def enb_counters(enbs) -> bytes:
    """Every eNodeB's counters, the assignment digest's trailer."""
    return repr([(enb.enb_id, astuple(enb.counters)) for enb in enbs]).encode()


@contextmanager
def record_assignments(enodeb_cls) -> Iterator[Digest]:
    """Digest every downlink assignment an eNodeB applies, as
    ``(tti, cell, rnti, n_prb, cqi_used, harq_pid, is_retx)`` on entry
    to ``_transmit_dl``."""
    digest = Digest()
    transmit_dl = enodeb_cls._transmit_dl

    def recording(enb, cell_id, a, tti):
        digest.add(repr((tti, cell_id, a.rnti, a.n_prb, a.cqi_used,
                         a.harq_pid, a.is_retx)).encode())
        return transmit_dl(enb, cell_id, a, tti)

    enodeb_cls._transmit_dl = recording
    try:
        yield digest
    finally:
        enodeb_cls._transmit_dl = transmit_dl


@contextmanager
def record_frames(codec) -> Iterator[Digest]:
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(HERE.parent),
                        help="checkout to import (default: this one)")
    parser.add_argument("--seeds", default="0,7")
    parser.add_argument("--workloads",
                        default="scale_steady,scale_churn,central_tti,"
                                "ran_only")
    parser.add_argument("--ttis", type=int, default=300,
                        help="TTIs after each workload's warm-up")
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' shrunk sizes")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "ttibudget")]
    import checks
    from workloads import SEED_STRIDE, WORKLOADS
    from repro.core.protocol import codec
    from repro.core.survive.snapshot import snapshot_rib
    from repro.lte.enodeb import EnodeB

    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        size = workload.smoke_size if args.smoke else workload.size
        for seed in (int(s) for s in args.seeds.split(",")):
            with record_frames(codec) as frames, \
                    record_assignments(EnodeB) as assignments:
                dep = workload.build(seed * SEED_STRIDE, size)
                try:
                    dep.sim.run(size.warmup_ttis + args.ttis)
                finally:
                    dep.sim.close()
            master = dep.sim.master
            rib = ("-" if master is None else hashlib.sha256(json.dumps(
                snapshot_rib(master.rib), sort_keys=True,
                default=repr).encode()).hexdigest())
            applied = assignments.hexdigest(enb_counters(dep.enbs))
            print(f"{name} seed={seed} frames={frames.count} "
                  f"frame_sha={frames.hexdigest()} "
                  f"fingerprint={checks.fingerprint(dep)} "
                  f"change_seq={sum(e.change_seq for e in dep.enbs)} "
                  f"rib_sha={rib} assignments={assignments.count} "
                  f"assign_sha={applied}", flush=True)


if __name__ == "__main__":
    main()
