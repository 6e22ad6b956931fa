"""Tests for the MCS error model."""

import pytest
from hypothesis import given, strategies as st

from repro.lte.mac.amc import DEFAULT_ERROR_MODEL, ErrorModel


class TestErrorModel:
    def test_matching_mcs_has_base_bler(self):
        assert DEFAULT_ERROR_MODEL.error_probability(10, 10) == 0.0
        assert DEFAULT_ERROR_MODEL.error_probability(10, 15) == 0.0

    def test_overshoot_penalties_increase(self):
        m = DEFAULT_ERROR_MODEL
        p1 = m.error_probability(10, 9)
        p2 = m.error_probability(10, 8)
        p3 = m.error_probability(10, 7)
        assert 0 < p1 < p2 < p3 == 1.0

    def test_cqi0_always_fails(self):
        assert DEFAULT_ERROR_MODEL.error_probability(0, 5) == 1.0

    def test_harq_combining_reduces_error(self):
        m = ErrorModel(one_step_bler=0.5)
        p_first = m.error_probability(10, 9, attempt=1)
        p_second = m.error_probability(10, 9, attempt=2)
        p_third = m.error_probability(10, 9, attempt=3)
        assert p_first > p_second > p_third

    def test_nonzero_base_bler(self):
        m = ErrorModel(base_bler=0.1)
        assert m.error_probability(10, 10) == pytest.approx(0.1)
        assert m.error_probability(10, 10, attempt=2) < 0.1

    def test_invalid_attempt_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_ERROR_MODEL.error_probability(10, 10, attempt=0)

    def test_invalid_bler_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(base_bler=1.5)
        with pytest.raises(ValueError):
            ErrorModel(one_step_bler=-0.1)

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=1, max_value=6))
    def test_probability_always_valid(self, used, actual, attempt):
        p = DEFAULT_ERROR_MODEL.error_probability(used, actual, attempt)
        assert 0.0 <= p <= 1.0
