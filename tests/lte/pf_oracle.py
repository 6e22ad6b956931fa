"""Reference oracle for ``ProportionalFairScheduler.schedule``: max per pick.

:func:`max_per_pick` is proportional fair as it stood before the
scheduler ranked its candidates once per TTI: every pick takes
``max(candidates, key=metric)`` over the candidates still unserved and
removes the winner, and the EWMA then runs UE by UE over ``ctx.ues``,
served or not.  It is kept only here, as the definition the scheduler
is checked against (the ``rr_oracle.py`` pattern): given the same
context, averages and ``alpha``, it must return the same assignments
and leave bit-identical averages.
"""

from typing import Dict, List

from repro.lte.mac.dci import DlAssignment, SchedulingContext, UeView
from repro.lte.mac.schedulers import prbs_for_queue, schedule_retransmissions
from repro.lte.phy.tbs import transport_block_bits


def max_per_pick(ctx: SchedulingContext, avg_rate: Dict[int, float],
                 alpha: float) -> List[DlAssignment]:
    """PF's assignments for *ctx*; updates *avg_rate* in place."""
    out = schedule_retransmissions(ctx, ctx.n_prb)
    remaining = ctx.n_prb - sum(a.n_prb for a in out)
    retx_rntis = {a.rnti for a in out}
    candidates = ctx.candidates(retx_rntis)
    served_bits: Dict[int, int] = {}
    while remaining > 0 and candidates:
        def metric(u: UeView) -> float:
            inst = transport_block_bits(u.cqi, 1)
            avg = avg_rate.get(u.rnti, 1.0)
            return inst / max(avg, 1.0)

        best = max(candidates, key=metric)
        need = prbs_for_queue(best.cqi, best.queue_bytes)
        n_prb = min(need, remaining)
        if n_prb <= 0:
            candidates.remove(best)
            continue
        out.append(DlAssignment(rnti=best.rnti, n_prb=n_prb,
                                cqi_used=best.cqi))
        served_bits[best.rnti] = transport_block_bits(best.cqi, n_prb)
        remaining -= n_prb
        candidates.remove(best)
    # EWMA update for every connected UE, served or not.
    for u in ctx.ues:
        bits = served_bits.get(u.rnti, 0)
        prev = avg_rate.get(u.rnti, 1.0)
        avg_rate[u.rnti] = (1 - alpha) * prev + alpha * bits
    return out
