"""CBR delta-crediting, emission hints, and the EPC timing wheel.

The TRAFFIC phase used to poll every provisioned flow every TTI.  Every
source now exposes a ``next_emission_tti`` hint and accounts the TTIs
it is not called for, and :class:`EpcStub` parks every flow in a
timing wheel so it is only visited on TTIs where it can emit.  These
tests pin the rate-exactness of sparse polling, the wheel against the
dense per-TTI loop it replaced, and the wheel's lifecycle corners
(pending adds, detached UEs, flow removal).
"""

import pytest

from repro.lte.enodeb import RNTI_BASE, EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.traffic.epc import EpcStub
from repro.traffic.generators import (
    _NEVER_TTI,
    CbrSource,
    OnOffSource,
    PoissonSource,
    SaturatingSource,
)
from tests.calls import Calls


class TestCbrDeltaCrediting:
    def test_sparse_polling_preserves_rate(self):
        # Poll only on the hinted TTIs: the delivered byte total must
        # match the dense per-TTI poll of an identical source.
        dense = CbrSource(0.4)
        sparse = CbrSource(0.4)
        dense_bytes = sum(sum(dense.packets(t)) for t in range(2000))
        sparse_bytes = 0
        t = 0
        while t < 2000:
            sparse_bytes += sum(sparse.packets(t))
            t = sparse.next_emission_tti(t)
        # 0.4 Mbps == 50 B/TTI: 100 kB accrued, 71 full packets out.
        assert dense_bytes == 71 * 1400
        assert abs(sparse_bytes - dense_bytes) <= sparse.packet_bytes

    def test_hint_never_skips_an_emission(self):
        src = CbrSource(0.7, phase=0.3)
        probe = CbrSource(0.7, phase=0.3)
        # Prime both rate clocks (the first call credits a single TTI
        # regardless of its TTI argument) so the two stay comparable.
        assert probe.packets(0) == src.packets(0)
        emitting_ttis = [t for t in range(1, 1000) if probe.packets(t)]
        t = 0
        hinted = []
        while t < 1000:
            nxt = src.next_emission_tti(t)
            if nxt >= 1000:
                break
            if src.packets(nxt):
                hinted.append(nxt)
            t = nxt
        assert hinted == emitting_ttis

    def test_rate_clock_starts_at_first_use(self):
        # A flow provisioned long before its first poll must not burst
        # the entire backlog of skipped TTIs on the first call.
        src = CbrSource(1.0)  # 125 bytes/TTI
        first = src.packets(500)
        assert len(first) <= 1

    def test_zero_rate_never_emits(self):
        src = CbrSource(0.0)
        assert src.next_emission_tti(7) == _NEVER_TTI
        assert src.packets(7) == []

    def test_hint_respects_start_window(self):
        src = CbrSource(5.0, start_tti=100)
        assert src.next_emission_tti(0) >= 100

    def test_on_off_does_not_burst_after_off_period(self):
        # Regression guard for the delta-crediting interaction: the
        # off time must not accrue credit in the inner CBR clock.
        src = OnOffSource(1.0, on_ttis=20, off_ttis=80)
        total = sum(len(src.packets(t)) for t in range(500))
        # 1 Mbps == 125 B/TTI over 5 x 20 on-TTIs == 12.5 kB -> 8 full
        # packets.  If the 80-TTI off periods accrued credit in the
        # inner CBR clock the count would be 44 (62.5 kB).
        assert total == 12_500 // 1400


class TestEpcTimingWheel:
    def make_cell(self, cqi=15):
        enb = EnodeB(1)
        ue = Ue("001", FixedCqi(cqi))
        rnti = enb.attach_ue(ue, tti=0)
        return enb, ue, rnti

    def test_hinted_flow_delivers_exact_rate(self):
        enb, ue, rnti = self.make_cell()
        epc = EpcStub()
        stats = epc.add_downlink(CbrSource(0.4), enb, rnti)
        for t in range(2000):
            epc.tick(t)
        assert stats.offered_bytes == 71 * 1400

    def test_no_credit_while_ue_absent(self):
        # The wheel probes an absent UE's flow every TTI without
        # calling the source, so attach does not trigger a burst.
        enb = EnodeB(1)
        epc = EpcStub()
        stats = epc.add_downlink(CbrSource(1.0), enb, rnti=9999)
        for t in range(400):
            epc.tick(t)
        assert stats.offered_bytes == 0
        ue = Ue("001", FixedCqi(15))
        rnti = enb.attach_ue(ue, tti=400)
        assert epc.rehome(enb, 9999, enb, rnti) == 1
        epc.tick(400)
        epc.tick(401)
        # 1 Mbps == 125 B/TTI: at most one packet could be due by now.
        assert stats.offered_packets <= 1

    def test_poisson_flow_added_before_attach_draws_from_attach(self):
        # Provisioned at TTI 0 with its window open from TTI 20, the
        # flow's UE attaches at TTI 301: its first draw is at attach,
        # none is spent while the UE is absent.
        enb = EnodeB(1)
        epc = EpcStub()
        stats = epc.add_downlink(PoissonSource(60.0, seed=5, start_tti=20),
                                 enb, RNTI_BASE)
        offered = []
        for t in range(1500):
            if t == 301:
                assert enb.attach_ue(Ue("001", FixedCqi(15)),
                                     tti=t) == RNTI_BASE
            before = stats.offered_packets
            epc.tick(t)
            offered.append(stats.offered_packets - before)
        scalar = PoissonSource(60.0, seed=5)._rng
        lam = 60.0 * 1000.0 / 8.0 / 1400
        assert offered == [0] * 301 + [int(scalar.poisson(lam))
                                       for _ in range(1199)]


def dense_loop(source, attach_at, ttis):
    """Per TTI, the ``(packets, bytes)`` offered by the loop the wheel
    replaced: the source called on every TTI its UE is present."""
    out = [source.packets(t) if t >= attach_at else []
           for t in range(ttis)]
    return [(len(packets), sum(packets)) for packets in out]


SOURCES = {
    "cbr": lambda: CbrSource(0.8, phase=0.25),
    "cbr_stop": lambda: CbrSource(2.0, stop_tti=900),
    # Hinted before its window opens, a packet interval (14 TTIs) that
    # outlasts the wait: the first call credits one TTI, whenever.
    "cbr_late": lambda: CbrSource(0.8, start_tti=5),
    "poisson": lambda: PoissonSource(3.0, seed=11, start_tti=5),
    "poisson_ptrs": lambda: PoissonSource(150.0, seed=2),
    "on_off": lambda: OnOffSource(2.0, on_ttis=7, off_ttis=13, start_tti=3),
    "saturating": lambda: SaturatingSource(start_tti=9),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("uplink", [False, True])
@pytest.mark.parametrize("attach_at", [0, 41])
def test_wheel_equals_dense_loop(name, uplink, attach_at):
    # Each source type, each direction, UE present from the start or
    # attaching late: per TTI, the wheel offers what the dense loop
    # offers from an identical source.
    ttis = 1500
    enb = EnodeB(1)
    epc = EpcStub()
    add = epc.add_uplink if uplink else epc.add_downlink
    stats = add(SOURCES[name](), enb, RNTI_BASE)
    offered = []
    for t in range(ttis):
        if t == attach_at:
            enb.attach_ue(Ue("001", FixedCqi(15)), tti=t)
        before = (stats.offered_packets, stats.offered_bytes)
        epc.tick(t)
        offered.append((stats.offered_packets - before[0],
                        stats.offered_bytes - before[1]))
    expected = dense_loop(SOURCES[name](), attach_at, ttis)
    assert sum(n for n, _ in expected) > 0
    assert offered == expected


def test_a_packet_stays_under_its_call_ceiling_beside_idle_flows():
    # A downlink and an uplink flow of one 1 400 B packet every other
    # TTI beside 30 flows that never emit: 200 packets over 200 TTIs.
    # 22.5 calls per packet, idle flows costing none, since every flow
    # waits on the wheel (CPython 3.11, exact).
    enb = EnodeB(1)
    rntis = [enb.attach_ue(Ue(f"{i:03d}", FixedCqi(15)), tti=0)
             for i in range(4)]
    epc = EpcStub()
    flows = [epc.add_downlink(CbrSource(5.6), enb, rntis[0]),
             epc.add_uplink(CbrSource(5.6), enb, rntis[1])]
    for i in range(30):
        epc.add_downlink(CbrSource(0.0), enb, rntis[i % 4])
    for t in range(10):
        epc.tick(t)
    before = sum(stats.offered_packets for stats in flows)
    calls = Calls()
    for t in range(10, 210):
        calls.run(epc.tick, t)
    packets = sum(stats.offered_packets for stats in flows) - before
    assert packets == 200
    assert calls.total / packets <= 22.5, calls
