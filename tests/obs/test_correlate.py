"""xid correlator: lifecycle stage semantics and an end-to-end run."""

from repro import obs
from repro.obs import correlate
from repro.obs.correlate import (
    DOWNLINK,
    UPLINK,
    XidCorrelator,
)
from repro.obs.export import chrome_trace, trace_components
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.sim.simulation import Simulation
from repro.traffic.generators import CbrSource

KEY = ("enb1", UPLINK, "StatsReply", 7)


def _complete(c, *, enqueue=10, wire=10, deliver=12, handle=12, key=KEY):
    c.on_enqueue(*key, enqueue)
    c.on_wire(*key, wire)
    c.on_deliver(*key, deliver)
    c.on_handle(*key, handle)


class TestStages:
    def test_full_lifecycle(self):
        c = XidCorrelator()
        _complete(c)
        assert c.in_flight() == 0
        [record] = c.completed
        assert (record.enqueue, record.wire, record.deliver,
                record.handle) == (10, 10, 12, 12)
        assert record.latency_ttis == 2

    def test_stage_ordering_is_monotone(self):
        # Even if callers report out-of-order TTIs, the record is
        # clamped so enqueue <= wire <= deliver <= handle.
        c = XidCorrelator()
        _complete(c, enqueue=10, wire=8, deliver=5, handle=3)
        [record] = c.completed
        assert (record.enqueue <= record.wire <= record.deliver
                <= record.handle)

    def test_deliver_without_wire_ignored(self):
        c = XidCorrelator()
        c.on_enqueue(*KEY, 1)
        c.on_deliver(*KEY, 2)
        c.on_handle(*KEY, 3)
        assert c.completed == []
        assert c.in_flight() == 1

    def test_handle_of_unknown_xid_ignored(self):
        c = XidCorrelator()
        c.on_handle("x", DOWNLINK, "DlMacCommand", 99, 5)
        assert c.completed == []

    def test_dropped_on_wire_never_completes(self):
        c = XidCorrelator()
        c.on_enqueue(*KEY, 1)
        c.on_wire(*KEY, 1, dropped=True)
        c.on_deliver(*KEY, 2)
        c.on_handle(*KEY, 3)
        assert c.completed == []
        assert c.dropped_messages == 1
        assert c.in_flight() == 0

    def test_reenqueue_orphans_open_record(self):
        c = XidCorrelator()
        c.on_enqueue(*KEY, 1)
        c.on_wire(*KEY, 1)
        c.on_enqueue(*KEY, 5)  # xid reused before completion
        c.on_wire(*KEY, 5)
        c.on_deliver(*KEY, 6)
        c.on_handle(*KEY, 6)
        assert c.orphaned == 1
        [record] = c.completed
        assert record.enqueue == 5

    def test_completed_cap(self, monkeypatch):
        monkeypatch.setattr(correlate, "MAX_COMPLETED", 2)
        c = XidCorrelator()
        for xid in range(4):
            _complete(c, key=("p", UPLINK, "m", xid))
        assert len(c.completed) == 2
        assert c.completed_dropped == 2


class TestQueries:
    def test_directional_latencies_and_cdf(self):
        c = XidCorrelator()
        for xid, lat in enumerate((1, 1, 3)):
            _complete(c, enqueue=0, wire=0, deliver=lat, handle=lat,
                      key=("p", UPLINK, "m", xid))
        _complete(c, enqueue=0, wire=0, deliver=9, handle=9,
                  key=("p", DOWNLINK, "m", 0))
        assert sorted(c.latencies(UPLINK)) == [1, 1, 3]
        assert c.latencies(DOWNLINK) == [9]
        cdf = c.cdf(UPLINK)
        assert cdf[0] == (1.0, 1 / 3)
        assert cdf[-1] == (3.0, 1.0)
        summary = c.summary()
        assert summary["completed"] == 4
        assert summary[UPLINK]["count"] == 3
        assert summary[DOWNLINK]["max"] == 9.0

    def test_empty_percentile_zero(self):
        assert XidCorrelator().percentile(50) == 0.0


class TestEndToEnd:
    def _run_sim(self, ttis=600):
        sim = Simulation(with_master=True)
        enb = sim.add_enb()
        sim.add_agent(enb, rtt_ms=4)
        ue = Ue("001", FixedCqi(12))
        sim.add_ue(enb, ue)
        sim.add_downlink_traffic(enb, ue, CbrSource(2.0))
        sim.run(ttis)
        return sim

    def test_sim_records_ordered_lifecycles(self):
        with obs.enabled_scope() as ob:
            self._run_sim()
            records = ob.correlator.records()
            assert records, "agented sim should complete xid lifecycles"
            for record in records:
                assert (record.enqueue <= record.wire <= record.deliver
                        <= record.handle), record
            # rtt 4 ms -> one-way 2 TTIs: no completed message can be
            # faster than the link latency.
            assert min(r.latency_ttis for r in records) >= 2

    def test_sim_trace_covers_platform_components(self):
        with obs.enabled_scope() as ob:
            self._run_sim()
            doc = chrome_trace(ob)
            components = trace_components(doc)
            for expected in ("scheduler", "task_manager", "agent_dispatch",
                             "transport"):
                assert expected in components, components
            assert len(components) >= 4
            cdf = doc["otherData"]["control_latency_cdf"]
            assert cdf[UPLINK], "uplink CDF should not be empty"
