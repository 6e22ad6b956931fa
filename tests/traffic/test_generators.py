"""Tests for traffic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.generators import (
    _NEVER_TTI,
    DEFAULT_PACKET_BYTES,
    CbrSource,
    OnOffSource,
    PoissonSource,
    SaturatingSource,
)


class TestCbr:
    def test_long_run_rate_exact(self):
        src = CbrSource(8.0)  # 1000 B/ms
        total = sum(sum(src.packets(t)) for t in range(10_000))
        assert total == pytest.approx(10_000 * 1000, rel=0.01)

    def test_sub_packet_rates_accumulate(self):
        src = CbrSource(0.112, packet_bytes=1400)  # 14 B per TTI
        total = sum(sum(src.packets(t)) for t in range(1000))
        assert total == pytest.approx(14_000, rel=0.11)

    def test_start_stop_window(self):
        src = CbrSource(8.0, start_tti=100, stop_tti=200)
        assert src.packets(50) == []
        assert sum(src.packets(150)) > 0 or sum(src.packets(151)) > 0
        assert src.packets(200) == []

    def test_zero_rate(self):
        src = CbrSource(0.0)
        assert all(src.packets(t) == [] for t in range(100))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CbrSource(-1.0)
        with pytest.raises(ValueError):
            CbrSource(1.0, packet_bytes=0)

    @given(st.floats(min_value=0.01, max_value=100, allow_nan=False))
    def test_rate_property(self, rate):
        src = CbrSource(rate)
        total = sum(sum(src.packets(t)) for t in range(2000))
        expected = rate * 1000 / 8 * 2000
        assert total <= expected + 1400
        assert total >= expected - 1400


class TestSaturating:
    def test_constant_burst(self):
        src = SaturatingSource(burst_bytes=5000, packet_bytes=1400)
        pkts = src.packets(0)
        assert sum(pkts) == 5000
        assert pkts == [1400, 1400, 1400, 800]

    def test_start_delay(self):
        src = SaturatingSource(start_tti=10)
        assert src.packets(9) == []
        assert src.packets(10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SaturatingSource(burst_bytes=0)

    @pytest.mark.parametrize("packet_bytes", [0, -1400])
    def test_invalid_packet_size(self, packet_bytes):
        with pytest.raises(ValueError, match="packet size"):
            SaturatingSource(packet_bytes=packet_bytes)

    def test_hint_sparse_equals_dense(self):
        dense = SaturatingSource(burst_bytes=3000, start_tti=17)
        sparse = SaturatingSource(burst_bytes=3000, start_tti=17)
        assert hinted_run(sparse, 3, 200) == dense_run(dense, 3, 200)


def dense_run(source, first_call, ttis):
    """``tti -> packets`` of the TTIs that emit, calling every TTI from
    *first_call* to *ttis*."""
    return {t: out for t in range(first_call, ttis)
            if (out := source.packets(t))}


def hinted_run(source, first_call, ttis):
    """The same, calling only *first_call* and then each hinted TTI."""
    emitted = {}
    t = first_call
    while t < ttis:
        out = source.packets(t)
        if out:
            emitted[t] = out
        nxt = source.next_emission_tti(t)
        assert nxt > t
        t = nxt
    return emitted


# Mean counts per TTI: none, sparse, dense, and numpy's PTRS branch (>= 10).
LAMBDAS = [0.0, 0.004, 0.3, 2.0, 12.0, 50.0]


def poisson_oracle(lam, seed, first, ttis):
    """Per-TTI counts of one scalar ``Generator.poisson`` draw per TTI
    from TTI *first* on: the source before it drew in blocks."""
    rng = np.random.default_rng(seed)
    return [int(rng.poisson(lam)) if t >= first else 0 for t in range(ttis)]


def poisson_source(lam, seed, start_tti):
    return PoissonSource(lam * 8 * DEFAULT_PACKET_BYTES / 1000.0, seed=seed,
                         start_tti=start_tti)


class TestPoissonBlocks:
    """The block-drawn source against the scalar oracle, call by call."""

    @settings(max_examples=60, deadline=None)
    @given(lam=st.sampled_from(LAMBDAS), seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 50), ttis=st.integers(1, 2600))
    def test_dense_calls_equal_scalar_draws(self, lam, seed, start, ttis):
        src = poisson_source(lam, seed, start)
        expected = poisson_oracle(src._lambda, seed, start, ttis)
        for t in range(ttis):  # including the calls before start_tti
            out = src.packets(t)
            assert len(out) == expected[t]
            assert set(out) <= {DEFAULT_PACKET_BYTES}

    @settings(max_examples=60, deadline=None)
    @given(lam=st.sampled_from(LAMBDAS), seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 50), first_call=st.integers(0, 80),
           ttis=st.integers(1, 2600))
    def test_hinted_calls_equal_scalar_draws(self, lam, seed, start,
                                             first_call, ttis):
        src = poisson_source(lam, seed, start)
        oracle = poisson_oracle(src._lambda, seed, max(start, first_call),
                                ttis)
        counts = {t: len(out)
                  for t, out in hinted_run(src, first_call, ttis).items()}
        assert counts == {t: n for t, n in enumerate(oracle) if n}

    @settings(max_examples=60, deadline=None)
    @given(lam=st.sampled_from(LAMBDAS), seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.integers(0, 3000), min_size=1, unique=True))
    def test_skipped_ttis_consume_their_draws(self, lam, seed, calls):
        # Calls at arbitrary TTIs, skipping emissions and whole blocks:
        # each call returns the count the per-TTI source draws for it.
        calls.sort()
        src = poisson_source(lam, seed, 0)
        oracle = poisson_oracle(src._lambda, seed, calls[0], calls[-1] + 1)
        assert [len(src.packets(t)) for t in calls] == \
               [oracle[t] for t in calls]

    def test_zero_rate_never_emits(self):
        src = PoissonSource(0.0)
        assert src.packets(3) == []
        assert src.next_emission_tti(3) == _NEVER_TTI


class TestPoisson:
    def test_mean_rate(self):
        src = PoissonSource(8.0, seed=1)
        total = sum(sum(src.packets(t)) for t in range(20_000))
        assert total == pytest.approx(20_000 * 1000, rel=0.05)

    def test_deterministic_per_seed(self):
        a = PoissonSource(5.0, seed=7)
        b = PoissonSource(5.0, seed=7)
        assert [a.packets(t) for t in range(100)] == \
               [b.packets(t) for t in range(100)]

    @pytest.mark.parametrize("packet_bytes", [0, -1400])
    def test_invalid_packet_size(self, packet_bytes):
        with pytest.raises(ValueError, match="packet size"):
            PoissonSource(1.0, packet_bytes=packet_bytes)


class TestOnOff:
    def test_off_phase_silent(self):
        src = OnOffSource(8.0, on_ttis=10, off_ttis=10)
        on_bytes = sum(sum(src.packets(t)) for t in range(10))
        off_bytes = sum(sum(src.packets(t)) for t in range(10, 20))
        assert on_bytes > 0
        assert off_bytes == 0

    def test_duty_cycle_halves_rate(self):
        src = OnOffSource(8.0, on_ttis=50, off_ttis=50)
        total = sum(sum(src.packets(t)) for t in range(10_000))
        assert total == pytest.approx(10_000 * 500, rel=0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            OnOffSource(1.0, on_ttis=0, off_ttis=5)

    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from([0.4, 0.8, 2.0, 3.2, 11.2, 40.0]),
           on=st.integers(1, 30), off=st.integers(0, 30),
           start=st.integers(0, 40), first_call=st.integers(0, 60))
    def test_hint_sparse_equals_dense(self, rate, on, off, start,
                                      first_call):
        # Rates whose bytes per TTI are whole numbers, so crediting k
        # TTIs at once is exactly k single credits.
        dense = OnOffSource(rate, on_ttis=on, off_ttis=off, start_tti=start)
        sparse = OnOffSource(rate, on_ttis=on, off_ttis=off, start_tti=start)
        assert (hinted_run(sparse, first_call, 1500)
                == dense_run(dense, first_call, 1500))
