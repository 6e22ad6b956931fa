"""Tests for VSF sandboxing (Sec 4.3.1) and the scheduling DSL (Sec 7.3)."""

import pytest

from repro.core.agent import FlexRanAgent
from repro.core.agent.cmi import (
    ControlModule,
    SandboxPolicy,
    VsfFault,
)
from repro.core.delegation import pack_vsf
from repro.core.dsl import DslError, DslScheduler, validate_program
from repro.core.protocol.messages import (
    EventNotification,
    EventType,
    PolicyReconfiguration,
    VsfUpdate,
)
from repro.core.policy import build_policy
from repro.lte.enodeb import EnodeB
from repro.lte.mac.dci import SchedulingContext, UeView
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
        m = ToyModule(sandbox=SandboxPolicy())
        m.register_vsf("op", "good", lambda x: x)
        m.register_vsf("op", "bad", lambda x: 1 / 0, activate=True)
        m.set_fallback("op", "good")
        assert m.invoke("op", 21) == 21  # fallback answered
        assert m.active_name("op") == "good"
        assert "bad" not in m.cached_names("op")
        assert m._slot("op").faults == 1

    def test_time_budget_overruns_quarantine(self):
        m = ToyModule(sandbox=SandboxPolicy(time_budget_ms=0.1))
        m.register_vsf("op", "good", lambda: "ok")
        m.register_vsf("op", "sluggish", declared(1.0, "slow"),
                       activate=True)
        m.set_fallback("op", "good")
        faults = []
        m.on_vsf_fault(lambda op, name, reason: faults.append((name, reason)))
        assert m.invoke("op") == "slow"     # it completed: over budget
        assert m.active_name("op") == "good"
        assert "sluggish" not in m.cached_names("op")
        assert faults == [("sluggish", "time budget: 1.0 ms > 0.1 ms")]
        assert m.invoke("op") == "ok"

    def test_over_budget_rolls_back_in_preference_order(self):
        m = ToyModule(sandbox=SandboxPolicy(time_budget_ms=0.5))
        m.register_vsf("op", "fallback", lambda: "fallback")
        m.register_vsf("op", "proven", declared(0.2, "proven"),
                       activate=True)
        m.set_fallback("op", "fallback")
        assert m.invoke("op") == "proven"   # becomes last-known-good
        m.register_vsf("op", "heavy", declared(0.6, "heavy"), activate=True)
        assert m.invoke("op") == "heavy"
        assert m.active_name("op") == "proven"
        m.register_vsf("op", "heavy", declared(0.6, "heavy"))
        m._slot("op").cache.pop("fallback")
        m._slot("op").fallback_name = None
        m.register_vsf("op", "proven", declared(0.6, "late"), activate=True)
        assert m.invoke("op") == "late"     # any other cached VSF
        assert m.active_name("op") == "heavy"
        with pytest.raises(VsfFault):       # none left
            m.invoke("op")

    def test_fast_vsf_resets_overrun_counter(self):
        m = ToyModule(sandbox=SandboxPolicy(time_budget_ms=50.0))
        m.register_vsf("op", "fine", declared(50.0, "ok"), activate=True)
        for _ in range(10):
            assert m.invoke("op") == "ok"   # at the budget, not over it
        assert m._slot("op").faults == 0
        assert m._slot("op").last_good_name == "fine"

    def test_no_fallback_available_raises(self):
        m = ToyModule(sandbox=SandboxPolicy())
        m.register_vsf("op", "only", lambda: 1 / 0, activate=True)
        with pytest.raises(VsfFault):
            m.invoke("op")

    def test_without_sandbox_exceptions_propagate(self):
        m = ToyModule()  # no sandbox
        m.register_vsf("op", "bad", lambda: 1 / 0, activate=True)
        with pytest.raises(ZeroDivisionError):
            m.invoke("op")

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SandboxPolicy(time_budget_ms=0)
        with pytest.raises(ValueError):
            SandboxPolicy(time_budget_ms=-0.5)
        assert SandboxPolicy().time_budget_ms is None


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


def ctx_with(ues, n_prb=50, subframe=0):
    return SchedulingContext(tti=subframe, n_prb=n_prb, ues=ues,
                             subframe=subframe)


def ue(rnti, queue=10 ** 6, cqi=10, **labels):
    return UeView(rnti=rnti, queue_bytes=queue, cqi=cqi,
                  labels=dict(labels))


class TestDslValidation:
    @pytest.mark.parametrize("bad", [
        [],                                         # empty program
        [{"bogus": 1}],                             # unknown key
        [{"when": {"weekday": 1}}],                 # unknown predicate
        [{"when": {"subframe_in": [10]}}],          # subframe range
        [{"share": 1.5}],                           # share out of range
        [{"policy": "nonexistent"}],                # unknown policy
        [{"serve": "everyone"}],                    # unsupported serve
        "not a list",
    ])
    def test_rejected(self, bad):
        with pytest.raises(DslError):
            validate_program(bad)

    def test_valid_program(self):
        validate_program([
            {"when": {"subframe_in": [1, 3]}, "serve": "nobody"},
            {"when": {"label": {"operator": "mvno"}}, "share": 0.3},
            {"policy": "proportional_fair"},
        ])


class TestDslScheduler:
    def test_label_shares(self):
        sched = DslScheduler([
            {"when": {"label": {"operator": "mvno"}}, "share": 0.3},
            {"when": {"label": {"operator": "mno"}}, "share": 0.7},
        ])
        ues = [ue(70, operator="mno"), ue(80, operator="mvno")]
        out = sched(ctx_with(ues))
        mvno = sum(a.n_prb for a in out if a.rnti == 80)
        mno = sum(a.n_prb for a in out if a.rnti == 70)
        assert mvno == 15 and mno == 35

    def test_subframe_gating(self):
        sched = DslScheduler([
            {"when": {"subframe_in": [1, 3]}, "serve": "nobody"},
            {"policy": "fair_share"},
        ])
        assert sched(ctx_with([ue(70)], subframe=1)) == []
        assert sched(ctx_with([ue(70)], subframe=2))

    def test_first_match_consumes_ue(self):
        sched = DslScheduler([
            {"when": {"label": {"group": "premium"}}, "share": 0.8},
            {"share": 0.2},
        ])
        ues = [ue(70, group="premium"), ue(71)]
        out = sched(ctx_with(ues))
        premium = sum(a.n_prb for a in out if a.rnti == 70)
        other = sum(a.n_prb for a in out if a.rnti == 71)
        assert premium == 40 and other == 10
        # Exactly one assignment per UE: no double service.
        assert sorted(a.rnti for a in out) == [70, 71]

    def test_min_queue_predicate(self):
        sched = DslScheduler([
            {"when": {"min_queue_bytes": 10_000}, "policy": "fair_share"},
        ])
        out = sched(ctx_with([ue(70, queue=100), ue(71, queue=50_000)]))
        assert [a.rnti for a in out] == [71]

    def test_rules_rewritable_at_runtime(self):
        sched = DslScheduler([{"share": 1.0}])
        sched.set_parameter("rules", [
            {"when": {"label": {"operator": "mvno"}}, "share": 0.5}])
        out = sched(ctx_with([ue(70), ue(80, operator="mvno")]))
        assert [a.rnti for a in out] == [80]

    def test_invalid_rewrite_rejected(self):
        sched = DslScheduler([{"share": 1.0}])
        with pytest.raises(DslError):
            sched.set_parameter("rules", [{"bogus": 1}])


class TestDslOverTheWire:
    def test_pushed_dsl_program_drives_the_cell(self):
        """The full §7.3 flow: a declarative program travels in a VSF
        blob, is instantiated by the trusted factory, activated by a
        policy message, and partitions the carrier as specified."""
        enb = EnodeB(1)
        conn = ControlConnection()
        agent = FlexRanAgent(1, enb, endpoint=conn.agent_side)
        ue_a = Ue("a", FixedCqi(12), labels={"operator": "mno"})
        ue_b = Ue("b", FixedCqi(12), labels={"operator": "mvno"})
        ra = enb.attach_ue(ue_a, tti=0)
        rb = enb.attach_ue(ue_b, tti=0)
        conn.master_side.send(VsfUpdate(
            module="mac", operation="dl_scheduling", name="dsl_slices",
            blob=pack_vsf("dsl:scheduler", {"rules": [
                {"when": {"label": {"operator": "mvno"}}, "share": 0.25},
                {"when": {"label": {"operator": "mno"}}, "share": 0.75},
            ]})), now=0)
        conn.master_side.send(PolicyReconfiguration(text=build_policy(
            "mac", "dl_scheduling", behavior="dsl_slices")), now=0)
        agent.tick_rx(0)
        for t in range(3000):
            if t >= 50:
                for r in (ra, rb):
                    enb.enqueue_dl(r, 4000, t)
            enb.tick(t)
        ratio = ue_a.rx_bytes_total / ue_b.rx_bytes_total
        assert ratio == pytest.approx(3.0, rel=0.1)
