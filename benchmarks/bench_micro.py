"""Microbenchmarks of the platform's hot paths.

These are conventional pytest-benchmark measurements (many rounds) of
the per-TTI building blocks: protocol encode/decode, scheduler
invocation, RIB update, the master's full cycle, and the data plane's
plan+transmit step.  They bound the reproduction's simulation rate and
give a Python-level analogue of the paper's feasibility argument (all
per-TTI work far below 1 ms for realistic cell sizes).
"""

from __future__ import annotations

import pytest

from repro.core.controller.rib import Rib
from repro.core.controller.rib_updater import RibUpdater
from repro.core.policy import PolicyDocument, build_policy
from repro.core.protocol import codec
from repro.core.protocol.messages import (
    Header,
    StatsReply,
    UeStatsReport,
)
from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import SchedulingContext, UeView
from repro.lte.mac.schedulers import (
    FairShareScheduler,
    ProportionalFairScheduler,
)
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.scenarios import centralized_scheduling

N_UES = 16


def _stats_reply() -> StatsReply:
    return StatsReply(
        header=Header(agent_id=1, xid=3, tti=1000),
        ue_reports=[UeStatsReport(
            rnti=70 + i, queues={1: 0, 3: 150_000}, wb_cqi=12,
            wb_cqi_clear=13, subband_cqi=[12] * 9,
            subband_sinr_db_x10=[180] * 9, harq_states=[0] * 8,
            rlc_bytes_in=10 ** 7, rlc_bytes_out=10 ** 7,
            pdcp_tx_bytes=10 ** 7, pdcp_rx_bytes=10 ** 7,
            rx_bytes_total=10 ** 8, rrc_state=3)
            for i in range(N_UES)])


def test_codec_encode_stats(benchmark):
    reply = _stats_reply()
    frame = benchmark(lambda: codec.encode(reply))
    assert len(frame) > 100


def test_codec_decode_stats(benchmark):
    frame = codec.encode(_stats_reply())
    message = benchmark(lambda: codec.decode(frame))
    assert len(message.ue_reports) == N_UES


def test_scheduler_fair_share(benchmark):
    sched = FairShareScheduler()
    ctx = SchedulingContext(
        tti=0, n_prb=50,
        ues=[UeView(rnti=70 + i, queue_bytes=10 ** 6, cqi=12)
             for i in range(N_UES)])
    out = benchmark(lambda: sched.schedule(ctx))
    assert out


@pytest.mark.parametrize("n_ues", [N_UES, 100])
def test_scheduler_proportional_fair(benchmark, n_ues):
    """Saturated queues, mixed CQIs; 100 UEs is one scale_churn cell."""
    sched = ProportionalFairScheduler()
    ctx = SchedulingContext(
        tti=0, n_prb=50,
        ues=[UeView(rnti=70 + i, queue_bytes=10 ** 6, cqi=5 + i % 10)
             for i in range(n_ues)])
    out = benchmark(lambda: sched.schedule(ctx))
    assert out


def test_rib_update_apply(benchmark):
    rib = Rib()
    updater = RibUpdater(rib)
    reply = _stats_reply()

    def apply():
        updater.apply(1, reply, now=1000)

    benchmark(apply)
    assert rib.agent(1)


def test_policy_parse(benchmark):
    text = build_policy("mac", "dl_scheduling", behavior="sliced",
                        parameters={"fractions": {"mno": 0.6, "mvno": 0.4}})
    doc = benchmark(lambda: PolicyDocument.from_text(text))
    assert doc.modules["mac"]


def test_enodeb_tti(benchmark):
    enb = EnodeB(1)
    rntis = [enb.attach_ue(Ue(f"{i}", FixedCqi(12)), tti=0)
             for i in range(N_UES)]
    state = {"t": 0}

    def tick():
        t = state["t"]
        for rnti in rntis:
            enb.enqueue_dl(rnti, 1400, t)
        enb.tick(t)
        state["t"] += 1

    benchmark(tick)


def test_full_platform_tti(benchmark):
    """One complete TTI of a 16-UE centralized deployment."""
    sc = centralized_scheduling(ues_per_enb=N_UES, cqi=12)
    sc.sim.run(200)  # warm-up: handshake, subscriptions
    benchmark(sc.sim.clock.tick)
