"""Reference oracle for ``RoundRobinScheduler.schedule``: rotate a copy.

:func:`rotate_copy_refilter` is round robin as it stood before the
scheduler walked its candidates in place: it copies the candidate list,
rotates the copy to the rotation index, re-filters it for backlog and
CQI, fills it greedily, and finds the first UE served in the unrotated
list to set the next rotation index.  It is kept only here, as the
definition the scheduler is checked against (the ``srs_oracle.py``
pattern): given the same context and rotation index, it must return the
same assignments and leave the same next index.
"""

from typing import List, Tuple

from repro.lte.mac.dci import DlAssignment, SchedulingContext
from repro.lte.mac.schedulers import prbs_for_queue, schedule_retransmissions


def rotate_copy_refilter(ctx: SchedulingContext, next_index: int
                         ) -> Tuple[List[DlAssignment], int]:
    """(assignments, next rotation index) of round robin at *next_index*."""
    out = schedule_retransmissions(ctx, ctx.n_prb)
    remaining = ctx.n_prb - sum(a.n_prb for a in out)
    retx_rntis = {a.rnti for a in out}
    backlogged = ctx.candidates(retx_rntis)
    if not backlogged or remaining <= 0:
        return out, next_index
    start = next_index % len(backlogged)
    rotated = backlogged[start:] + backlogged[:start]
    new_data: List[DlAssignment] = []
    for ue in [u for u in rotated if u.queue_bytes > 0 and u.cqi > 0]:
        if remaining <= 0:
            break
        n_prb = min(prbs_for_queue(ue.cqi, ue.queue_bytes), remaining)
        if n_prb <= 0:
            continue
        new_data.append(DlAssignment(rnti=ue.rnti, n_prb=n_prb,
                                     cqi_used=ue.cqi))
        remaining -= n_prb
    if new_data:
        served_first = new_data[0].rnti
        for i, u in enumerate(backlogged):
            if u.rnti == served_first:
                next_index = i + 1
                break
    out.extend(new_data)
    return out, next_index
