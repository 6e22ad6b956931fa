"""Tests for VSF sandboxing (Sec 4.3.1)."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.cmi import ControlModule, VsfFault
from repro.core.delegation import pack_vsf
from repro.core.protocol.messages import (
    EventNotification,
    EventType,
    PolicyReconfiguration,
    VsfUpdate,
)
from repro.core.policy import build_policy
from repro.lte.enodeb import EnodeB
from repro.lte.phy.channel import FixedCqi
from repro.lte.phy.tbs import capacity_mbps
from repro.lte.ue import Ue
from repro.net.transport import ControlConnection


class ToyModule(ControlModule):
    name = "toy"
    OPERATIONS = ("op",)


def declared(cost_ms, result):
    """A VSF that returns *result* and declares *cost_ms*."""
    def vsf():
        return result
    vsf.cost_ms = cost_ms
    return vsf


class TestSandbox:
    def test_exception_quarantines_and_falls_back(self):
        m = ToyModule()
        m.register_vsf("op", "good", lambda x: x)
        m.register_vsf("op", "bad", lambda x: 1 / 0, activate=True)
        m.set_fallback("op", "good")
        assert m.invoke("op", 21) == 21  # fallback answered
        assert m.active_name("op") == "good"
        assert "bad" not in m.cached_names("op")
        assert m._slot("op").faults == 1

    def test_time_budget_overruns_quarantine(self):
        m = ToyModule()
        m.register_vsf("op", "good", lambda: "ok")
        m.register_vsf("op", "sluggish", declared(1.5, "slow"),
                       activate=True)
        m.set_fallback("op", "good")
        faults = []
        m.on_vsf_fault(lambda op, name, reason: faults.append((name, reason)))
        assert m.invoke("op") == "slow"     # it completed: over the TTI
        assert m.active_name("op") == "good"
        assert "sluggish" not in m.cached_names("op")
        assert faults == [("sluggish", "time budget: 1.5 ms > 1.0 ms")]
        assert m.invoke("op") == "ok"

    def test_over_budget_rolls_back_in_preference_order(self):
        m = ToyModule()
        m.register_vsf("op", "fallback", lambda: "fallback")
        m.register_vsf("op", "proven", declared(0.4, "proven"),
                       activate=True)
        m.set_fallback("op", "fallback")
        assert m.invoke("op") == "proven"   # becomes last-known-good
        m.register_vsf("op", "heavy", declared(1.2, "heavy"), activate=True)
        assert m.invoke("op") == "heavy"
        assert m.active_name("op") == "proven"
        m.register_vsf("op", "heavy", declared(1.2, "heavy"))
        m._slot("op").cache.pop("fallback")
        m.register_vsf("op", "proven", declared(1.2, "late"), activate=True)
        assert m.invoke("op") == "late"     # any other cached VSF
        assert m.active_name("op") == "heavy"
        with pytest.raises(VsfFault):       # none left
            m.invoke("op")

    def test_rollback_skips_a_fallback_an_earlier_fault_evicted(self):
        def module(*extra):
            m = ToyModule()
            m.register_vsf("op", "a", lambda: 1 / 0)
            m.register_vsf("op", "b", declared(1.5, "b"))
            for name in extra:
                m.register_vsf("op", name, declared(0.0, name))
            m.set_fallback("op", "a")
            return m

        m = module("c")
        assert m.invoke("op") == "b"        # a raises: evicted, b answers
        assert m.invoke("op") == "b"        # b is over the TTI ...
        assert m.active_name("op") == "c"   # ... and c, not a, takes over
        assert m.cached_names("op") == ["c"]
        m = module()
        assert m.invoke("op") == "b"
        with pytest.raises(VsfFault):       # a is gone: nothing is left
            m.invoke("op")

    def test_fast_vsf_resets_overrun_counter(self):
        m = ToyModule()
        m.register_vsf("op", "fine", declared(1.0, "ok"), activate=True)
        for _ in range(10):
            assert m.invoke("op") == "ok"   # at the TTI, not over it
        assert m._slot("op").faults == 0
        assert m._slot("op").last_good_name == "fine"

    def test_no_fallback_available_raises(self):
        m = ToyModule()
        m.register_vsf("op", "only", lambda: 1 / 0, activate=True)
        with pytest.raises(VsfFault):
            m.invoke("op")


class TestSandboxEndToEnd:
    def test_crashing_pushed_vsf_does_not_kill_the_cell(self):
        """A buggy pushed scheduler is quarantined mid-run: the data
        plane falls back to the built-in scheduler and keeps serving,
        and the master is notified with a VSF_FAULT event."""
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        # Trust a deliberately broken factory on this agent.
        agent.vsf_registry.register(
            "test:crashy", lambda: (lambda ctx: [][1]))
        ue = Ue("001", FixedCqi(12))
        rnti = enb.attach_ue(ue, tti=0)
        conn.master_side.send(VsfUpdate(
            module="mac", operation="dl_scheduling", name="crashy",
            blob=pack_vsf("test:crashy")), now=0)
        conn.master_side.send(PolicyReconfiguration(text=build_policy(
            "mac", "dl_scheduling", behavior="crashy")), now=0)
        agent.tick_rx(0)
        assert agent.mac.active_name("dl_scheduling") == "crashy"
        for t in range(1500):
            if t >= 20:
                enb.enqueue_dl(rnti, 3000, t)
            agent.tick_tx(t)
            enb.tick(t)
        # Quarantined and reverted to the designated fallback.
        assert agent.mac.active_name("dl_scheduling") == "local_rr"
        # Service continued at full rate after the revert.
        assert ue.throughput_mbps(1499) == pytest.approx(
            capacity_mbps(12, 50), rel=0.1)
        # The master heard about it.
        events = [m for m in conn.master_side.receive(now=1500)
                  if isinstance(m, EventNotification)
                  and m.event_type == int(EventType.VSF_FAULT)]
        assert events
        assert events[0].details["vsf"] == "crashy"
