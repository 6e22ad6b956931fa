"""Tests for SINR<->CQI mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.lte.constants import CQI_SINR_THRESHOLDS_DB, CQI_TABLE
from repro.lte.phy.cqi import (
    clamp_cqi,
    cqi_efficiency,
    cqi_to_sinr_floor,
    degrade_cqi,
    sinr_to_cqi,
    validate_cqi,
)


class TestSinrToCqi:
    def test_very_low_sinr_is_out_of_range(self):
        assert sinr_to_cqi(-30.0) == 0

    def test_very_high_sinr_is_cqi_15(self):
        assert sinr_to_cqi(40.0) == 15

    def test_exact_threshold_reports_that_cqi(self):
        for cqi, thr in CQI_SINR_THRESHOLDS_DB.items():
            assert sinr_to_cqi(thr) == cqi

    def test_just_below_threshold_reports_lower_cqi(self):
        for cqi in range(2, 16):
            thr = CQI_SINR_THRESHOLDS_DB[cqi]
            assert sinr_to_cqi(thr - 0.01) == cqi - 1

    @given(st.floats(min_value=-40, max_value=40,
                     allow_nan=False, allow_infinity=False))
    def test_monotone_in_sinr(self, sinr):
        assert sinr_to_cqi(sinr) <= sinr_to_cqi(sinr + 1.0)

    @given(st.integers(min_value=0, max_value=15))
    def test_roundtrip_through_floor(self, cqi):
        assert sinr_to_cqi(cqi_to_sinr_floor(cqi) + 0.05) == cqi


class TestValidation:
    @pytest.mark.parametrize("bad", [-1, 16, 100, 2.5, "7", True])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_cqi(bad)

    @pytest.mark.parametrize("good", list(range(16)))
    def test_accepts_valid(self, good):
        assert validate_cqi(good) == good

    def test_same_verdict_as_the_isinstance_definition(self):
        """The plain-int shortcut accepts and rejects exactly what the
        two ``isinstance`` tests alone do, with the same message."""
        import enum

        import numpy as np

        class Level(enum.IntEnum):
            LOW = 3
            HUGE = 99

        def reference(cqi):
            if not isinstance(cqi, int) or isinstance(cqi, bool):
                raise ValueError(f"CQI must be an int, got {cqi!r}")
            if not 0 <= cqi <= 15:
                raise ValueError(f"CQI must be in [0, 15], got {cqi}")
            return cqi

        def verdict(fn, value):
            try:
                return fn(value)
            except ValueError as exc:
                return str(exc)

        for value in (*range(-2, 18), True, False, 7.0, 2.5, "7", None,
                      np.int64(7), np.int32(20), np.float64(3.0),
                      Level.LOW, Level.HUGE, 10 ** 30):
            assert verdict(validate_cqi, value) == verdict(reference, value)

    def test_clamp(self):
        assert clamp_cqi(-5) == 0
        assert clamp_cqi(99) == 15
        assert clamp_cqi(7) == 7


class TestEfficiency:
    def test_matches_standard_table(self):
        assert cqi_efficiency(15) == pytest.approx(5.5547)
        assert cqi_efficiency(1) == pytest.approx(0.1523)

    def test_strictly_increasing(self):
        effs = [cqi_efficiency(c) for c in range(1, 16)]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_cqi0_has_zero_efficiency(self):
        assert cqi_efficiency(0) == 0.0

    def test_modulation_orders(self):
        assert CQI_TABLE[6].modulation == "QPSK"
        assert CQI_TABLE[7].modulation == "16QAM"
        assert CQI_TABLE[10].modulation == "64QAM"


class TestDegrade:
    def test_degrade_steps(self):
        assert degrade_cqi(10, 3) == 7

    def test_degrade_clamps_at_zero(self):
        assert degrade_cqi(2, 9) == 0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            degrade_cqi(10, -1)
