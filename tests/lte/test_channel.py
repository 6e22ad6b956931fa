"""Tests for the radio channel models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.lte.phy.channel import (
    FixedCqi,
    FixedSinr,
    GaussMarkovSinr,
    InterferenceChannel,
    SquareWaveCqi,
    TraceCqi,
)
from repro.lte.phy.cqi import sinr_to_cqi


class TestFixedChannels:
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_fixed_cqi_reports_exactly(self, cqi, tti):
        assert FixedCqi(cqi).cqi(tti) == cqi

    def test_fixed_sinr_constant(self):
        ch = FixedSinr(10.0)
        assert ch.sinr_db(0) == ch.sinr_db(123456) == 10.0

    def test_sinr_consistent_with_cqi(self):
        ch = FixedCqi(11)
        assert sinr_to_cqi(ch.sinr_db(0)) == 11


class TestSquareWave:
    def test_alternates_with_period(self):
        ch = SquareWaveCqi(10, 4, period_ttis=100)
        assert ch.cqi(0) == 10
        assert ch.cqi(99) == 10
        assert ch.cqi(100) == 4
        assert ch.cqi(199) == 4
        assert ch.cqi(200) == 10

    def test_start_low(self):
        ch = SquareWaveCqi(4, 10, period_ttis=50)
        assert ch.cqi(0) == 4
        assert ch.cqi(50) == 10

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            SquareWaveCqi(10, 4, period_ttis=0)


class TestTrace:
    def test_holds_until_change_point(self):
        ch = TraceCqi([(0, 5), (100, 9), (250, 3)])
        assert ch.cqi(0) == 5
        assert ch.cqi(99) == 5
        assert ch.cqi(100) == 9
        assert ch.cqi(249) == 9
        assert ch.cqi(250) == 3
        assert ch.cqi(10 ** 6) == 3

    def test_before_first_point_uses_first_value(self):
        ch = TraceCqi([(50, 8)])
        assert ch.cqi(0) == 8

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceCqi([])


class TestGaussMarkov:
    def test_deterministic_for_seed(self):
        a = GaussMarkovSinr(15.0, sigma_db=2.0, seed=42)
        b = GaussMarkovSinr(15.0, sigma_db=2.0, seed=42)
        assert [a.sinr_db(t) for t in range(100)] == \
               [b.sinr_db(t) for t in range(100)]

    def test_repeated_query_same_tti_is_stable(self):
        ch = GaussMarkovSinr(15.0, seed=1)
        assert ch.sinr_db(50) == ch.sinr_db(50)

    def test_mean_reversion(self):
        ch = GaussMarkovSinr(15.0, sigma_db=1.0, reversion=0.1, seed=3)
        values = [ch.sinr_db(t) for t in range(5000)]
        mean = sum(values) / len(values)
        assert abs(mean - 15.0) < 1.5

    def test_zero_sigma_converges_to_mean(self):
        ch = GaussMarkovSinr(10.0, sigma_db=0.0, reversion=0.5, seed=0)
        assert ch.sinr_db(200) == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_k_step_reads_follow_the_walks_law(self, seed):
        # Read every k TTIs, the channel is the per-TTI walk
        # v += r (mean - v) + sigma sqrt(r) z sampled every k TTIs: an
        # AR(1) chain with the walk's stationary mean and variance and
        # lag-1 autocorrelation (1 - r)^k.  Each statistic of 20 000
        # reads must lie within four standard errors of theory.
        mean, sigma, r, n = 12.0, 3.0, 0.05, 20_000
        var = sigma ** 2 * r / (1 - (1 - r) ** 2)
        for k in (1, 4, 10, 25):
            ch = GaussMarkovSinr(mean, sigma_db=sigma, reversion=r,
                                 seed=seed)
            # The first read, 201 TTIs in, starts the chain stationary.
            v = np.array([ch.sinr_db(200 + k * i) for i in range(n)])
            rho = (1 - r) ** k
            se_mean = math.sqrt(var / n * (1 + rho) / (1 - rho))
            se_var = var * math.sqrt(2 * (1 + rho ** 2)
                                     / (n * (1 - rho ** 2)))
            se_rho = math.sqrt((1 - rho ** 2) / n)
            assert abs(v.mean() - mean) < 4 * se_mean, k
            assert abs(v.var() - var) < 4 * se_var, k
            lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
            assert abs(lag1 - rho) < 4 * se_rho, k

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_block_drawn_noise_is_the_scalar_stream(self, seed):
        # The channel draws its noise in blocks; the values must be, one
        # for one, the k-step transitions a scalar draw per read of a
        # TTI not read before produces -- across gaps of every length,
        # repeated queries and a change of sigma_db.
        ch = GaussMarkovSinr(12.0, sigma_db=3.0, reversion=0.05, seed=seed)
        rng = np.random.default_rng(seed)
        mean, sigma, stay = 12.0, 3.0, 0.95
        value, last = mean, -1
        gaps = np.random.default_rng(99).integers(0, 7, size=1000)
        tti = 0
        for k, gap in enumerate(gaps):
            tti += int(gap)
            if k == 500:
                ch.sigma_db = sigma = 1.25
            if tti > last:
                keep = stay ** (tti - last)
                value = mean + keep * (value - mean) + rng.standard_normal(
                ) * sigma * math.sqrt(0.05 * (1 - keep ** 2)
                                      / (1 - stay ** 2))
                last = tti
            got = ch.sinr_db(tti)
            assert got == pytest.approx(value, rel=1e-12, abs=1e-12), (k, tti)
            assert type(got) is float

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GaussMarkovSinr(10.0, reversion=0.0)
        with pytest.raises(ValueError):
            GaussMarkovSinr(10.0, sigma_db=-1.0)


class TestInterference:
    def test_two_states(self):
        ch = InterferenceChannel(20.0, 0.0)
        assert ch.sinr_db(0, interference_active=False) == 20.0
        assert ch.sinr_db(0, interference_active=True) == 0.0

    def test_default_assumes_interference(self):
        ch = InterferenceChannel(20.0, 0.0)
        assert ch.sinr_db(0) == 0.0

    def test_inverted_states_rejected(self):
        with pytest.raises(ValueError):
            InterferenceChannel(0.0, 20.0)

    def test_cqi_differs_between_states(self):
        ch = InterferenceChannel(23.0, -5.0)
        assert ch.cqi(0, interference_active=False) > ch.cqi(
            0, interference_active=True)
