"""Tests for the phased simulation clock."""

import pytest

from repro.net.clock import Phase, SimClock


class TestSimClock:
    def test_phases_run_in_order(self):
        clock = SimClock()
        order = []
        clock.register(Phase.RAN, lambda t: order.append("ran"))
        clock.register(Phase.TRAFFIC, lambda t: order.append("traffic"))
        clock.register(Phase.MASTER, lambda t: order.append("master"))
        clock.tick()
        assert order == ["traffic", "master", "ran"]

    def test_same_phase_registration_order(self):
        clock = SimClock()
        order = []
        clock.register(Phase.RAN, lambda t: order.append("a"))
        clock.register(Phase.RAN, lambda t: order.append("b"))
        clock.tick()
        assert order == ["a", "b"]

    def test_now_advances(self):
        clock = SimClock()
        seen = []
        clock.register(Phase.POST, seen.append)
        clock.run(5)
        assert seen == [0, 1, 2, 3, 4]
        assert clock.now == 5

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            SimClock().run(-1)
