"""Reference oracle for ``RlcEntity.dequeue_priority``: dequeue per bearer.

:func:`dequeue_per_bearer` is the priority drain as it stood before the
RLC skipped empty bearers: it sorts the instantiated LCIDs, rebuilds the
order with ``prefer_lcid`` moved ahead of the other DRBs whenever that
bearer exists, and calls ``RlcEntity.dequeue`` on every bearer in turn
until the budget is down to a header.  It is kept only here, as the
definition the entity is checked against (the ``pf_oracle.py``
pattern): from the same entity state it must return the same map, in
the same order, and leave the same queues, counters and change record.
"""

from typing import Dict, Optional

from repro.lte.rlc import RLC_HEADER_BYTES, RlcEntity


def dequeue_per_bearer(rlc: RlcEntity, max_bytes: int, tti: int, *,
                       prefer_lcid: Optional[int] = None) -> Dict[int, int]:
    """*rlc*'s bearers drained in LCID order up to *max_bytes*."""
    taken: Dict[int, int] = {}
    remaining = max_bytes
    order = sorted(rlc.queues.by_lcid)
    if prefer_lcid is not None and prefer_lcid in order:
        srbs = [lcid for lcid in order if lcid < 3]
        drbs = [lcid for lcid in order if lcid >= 3 and lcid != prefer_lcid]
        order = srbs + [prefer_lcid] + drbs
    for lcid in order:
        if remaining <= RLC_HEADER_BYTES:
            break
        got = rlc.dequeue(remaining, tti, lcid)
        if got > 0:
            taken[lcid] = got
            remaining -= got + RLC_HEADER_BYTES
    return taken
