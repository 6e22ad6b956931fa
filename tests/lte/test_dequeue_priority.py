"""``RlcEntity.dequeue_priority`` against the per-bearer oracle.

Two entities run the same program -- bearers instantiated in a drawn
order, SDUs enqueued (some tail-dropped), HARQ payload requeued at the
head, drains with every kind of ``prefer_lcid`` -- one draining itself,
the other through ``rlc_oracle.dequeue_per_bearer``.  After every step
they must agree on the returned map (items and order), every queue
(packets, counters, creation order), ``RlcStats`` and what was
recorded; and the entity's shared backlog must equal a fresh count.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.lte import rlc as rlc_module
from repro.lte.rlc import RLC_HEADER_BYTES, RlcEntity
from tests.lte.rlc_oracle import dequeue_per_bearer

RNTI = 70
BEARERS = (1, 3, 4, 5, 6)  # SRB1 and DRBs 3-6
LIMIT = 4000

budgets = st.one_of(st.integers(min_value=0, max_value=RLC_HEADER_BYTES),
                    st.integers(min_value=RLC_HEADER_BYTES + 1,
                                max_value=6000))
# Absent, an instantiated or missing DRB (7 never is), or an SRB.
prefers = st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7])
sizes = st.integers(min_value=1, max_value=1500)
steps = st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from(BEARERS), sizes),
    st.tuples(st.just("requeue_front"), st.sampled_from(BEARERS), sizes),
    st.tuples(st.just("drain"), budgets, prefers))


def queue_state(rlc: RlcEntity):
    return [(lcid, [(p.size_bytes, p.enqueue_tti) for p in q._packets],
             q.size_bytes, q.enqueued_bytes, q.dequeued_bytes,
             q.dropped_packets, q.dropped_bytes)
            for lcid, q in rlc.queues.by_lcid.items()]


@settings(max_examples=300, deadline=None)
@given(bearers=st.permutations(BEARERS).flatmap(
           lambda order: st.integers(0, len(order)).map(
               lambda n: order[:n])),
       program=st.lists(steps, max_size=25),
       limited=st.booleans())
def test_dequeue_priority_matches_the_per_bearer_oracle(bearers, program,
                                                        limited):
    records: List[List[int]] = [[], []]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rlc_module, "DEFAULT_RLC_BUFFER_BYTES",
                   LIMIT if limited else None)
        mine, oracle = (RlcEntity(RNTI, record.append) for record in records)
    for rlc in (mine, oracle):
        for lcid in bearers:
            rlc.queues.queue(lcid)  # instantiated, empty
    for tti, (op, *args) in enumerate(program):
        if op == "drain":
            budget, prefer = args
            got = mine.dequeue_priority(budget, tti, prefer_lcid=prefer)
            want = dequeue_per_bearer(oracle, budget, tti,
                                      prefer_lcid=prefer)
            assert list(got.items()) == list(want.items())
            assert records[0] == ([RNTI] if got else [])  # one per drain
        else:
            lcid, nbytes = args
            for rlc in (mine, oracle):
                if op == "enqueue":
                    rlc.enqueue(nbytes, tti, lcid)
                else:
                    rlc.requeue_front(nbytes, tti, lcid)
        assert set(records[0]) == set(records[1])
        for record in records:
            record.clear()
        assert queue_state(mine) == queue_state(oracle)
        assert mine.stats == oracle.stats
        fresh = mine.queues.sizes()
        assert mine.backlog() == (fresh, sum(fresh.values()))
        assert list(mine.sizes().items()) == list(fresh.items())
