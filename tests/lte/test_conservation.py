"""System-level conservation properties of the data plane.

Whatever the scheduler, channel or traffic pattern, application bytes
must be accounted for exactly: everything offered to an eNodeB is
either delivered to the UE, still queued, held in HARQ processes
awaiting feedback, or explicitly counted as dropped.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.cell import CellConfig
from repro.lte.enodeb import EnodeB
from repro.lte.mac.amc import ErrorModel
from repro.lte.mac.schedulers import make_scheduler
from repro.lte.phy.channel import FixedCqi, SquareWaveCqi
from repro.lte.ue import Ue


def accounted_bytes(enb, rnti):
    """Delivered + queued + failed-in-HARQ + dropped for one UE.

    Successfully transmitted payload is delivered immediately but its
    HARQ buffer is only released on the ACK four TTIs later, so
    payload whose pending feedback is positive must not be counted a
    second time.  HARQ buffers count on every carrier serving the UE.
    """
    ue = enb.ue(rnti)
    carriers = {enb.primary_cell(rnti).cell_id, *enb.active_scells(rnti)}
    delivered_unacked = {
        (c, r, p) for (_, c, r, p, ok) in enb._pending_feedback if ok}
    in_harq_failed = sum(
        sum(split.values())
        for key, split in enb._harq_payload.items()
        if key[0] in carriers and key[1] == rnti
        and key not in delivered_unacked)
    rlc = enb.rlc[rnti]
    # SRB signalling is injected by RRC, not by the traffic source, so
    # track only the data bearer (lcid 3).
    drb = rlc.queue(3)
    return (ue.rx_bytes_total + drb.size_bytes + in_harq_failed
            + drb.dropped_bytes)


@settings(max_examples=15, deadline=None)
@given(
    cqi_hi=st.integers(min_value=5, max_value=15),
    cqi_drop=st.integers(min_value=0, max_value=4),
    flip_period=st.integers(min_value=13, max_value=200),
    scheduler=st.sampled_from(["round_robin", "fair_share",
                               "proportional_fair", "max_cqi"]),
    packets_per_tti=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10),
)
def test_byte_conservation_under_errors(cqi_hi, cqi_drop, flip_period,
                                        scheduler, packets_per_tti, seed):
    """Bytes are conserved even with HARQ losses and stale-MCS errors."""
    cqi_lo = max(1, cqi_hi - cqi_drop)
    enb = EnodeB(1, seed=seed, error_model=ErrorModel(base_bler=0.05),
                 rlc_buffer_bytes=200_000)
    enb.dl_scheduler[enb.cell().cell_id] = make_scheduler(scheduler)
    ue = Ue("001", SquareWaveCqi(cqi_hi, cqi_lo, period_ttis=flip_period))
    rnti = enb.attach_ue(ue, tti=0)

    offered = 0
    for t in range(600):
        if t >= 30:
            for _ in range(packets_per_tti):
                enb.enqueue_dl(rnti, 1400, t)
                offered += 1400
        enb.tick(t)
        # _process_feedback takes due entries off the front.
        due = [entry[0] for entry in enb._pending_feedback]
        assert due == sorted(due)
    # Drain HARQ feedback in flight (no new traffic).
    for t in range(600, 640):
        enb.tick(t)
    assert accounted_bytes(enb, rnti) == offered


def test_conservation_with_harq_exhaustion():
    """Blocks dropped after MAX_HARQ_TX return their bytes to the queue
    (RLC recovery), so nothing vanishes even on a broken link."""
    enb = EnodeB(1, seed=1)
    # The eNodeB believes CQI 12 but the channel collapses to 6 between
    # two SRS refreshes: transmissions in the stale window overshoot by
    # 6 steps -> guaranteed failure, and their HARQ retransmissions
    # (same stale MCS) fail until the attempt budget is exhausted.
    ue = Ue("001", FixedCqi(12))
    rnti = enb.attach_ue(ue, tti=0)
    for t in range(105):
        enb.tick(t)  # attach completes at true CQI; last SRS at t=100
    ue.channel = FixedCqi(6)  # collapse mid-SRS-period

    offered = 0
    for t in range(105, 160):
        enb.enqueue_dl(rnti, 1400, t)
        offered += 1400
        enb.tick(t)
    for t in range(160, 300):
        enb.tick(t)
    # Some blocks were dropped by HARQ and requeued.
    assert enb.counters.tb_dropped > 0 or enb.counters.tb_err > 0
    assert accounted_bytes(enb, rnti) == offered


@pytest.mark.parametrize("base_bler", [0.0, 0.3])
def test_conservation_across_scell_deactivation(base_bler):
    """Blocks in flight on a carrier that is deactivated go back to
    their bearer; they used to stay in ``_harq_payload`` forever, dequeued
    from RLC and never delivered, requeued or counted."""
    enb = EnodeB(1, [CellConfig(cell_id=10), CellConfig(cell_id=11)],
                 seed=1, error_model=ErrorModel(base_bler=base_bler),
                 rlc_buffer_bytes=10_000_000)
    ue = Ue("001", FixedCqi(12))
    ue.carrier_channels[11] = FixedCqi(12)
    rnti = enb.attach_ue(ue, cell_id=10, tti=0)
    for t in range(60):
        enb.tick(t)
    enb.activate_scell(rnti, 11, tti=60)
    offered = 0
    for t in range(60, 200):
        for _ in range(8):
            enb.enqueue_dl(rnti, 1400, t)
            offered += 1400
        enb.tick(t)
        assert accounted_bytes(enb, rnti) == offered
    assert any(key[0] == 11 for key in enb._harq_payload)  # in flight
    enb.deactivate_scell(rnti, 11)
    assert accounted_bytes(enb, rnti) == offered
    for t in range(200, 600):
        enb.tick(t)
        due = [entry[0] for entry in enb._pending_feedback]
        assert due == sorted(due)
    assert accounted_bytes(enb, rnti) == offered
    assert not [key for key in enb._harq_payload if key[0] == 11]


def test_counters_consistent():
    enb = EnodeB(1)
    ue = Ue("001", FixedCqi(10))
    rnti = enb.attach_ue(ue, tti=0)
    for t in range(500):
        if t >= 30:
            enb.enqueue_dl(rnti, 1400, t)
        enb.tick(t)
    c = enb.counters
    assert c.dl_assignments == c.tb_ok + c.tb_err
    assert c.dl_delivered_bytes == ue.rx_bytes_total
