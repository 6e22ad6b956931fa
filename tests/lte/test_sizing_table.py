"""The sizing table equals the arithmetic it tabulates.

``transport_block_bits`` indexes a table built at import, and
``prbs_needed`` / ``prbs_for_queue`` bisect into it; beyond the widest
carrier (100 PRBs) all three fall back to exact arithmetic.  These tests
restate the arithmetic definition independently and check every CQI,
every PRB count on both sides of the table's edge, downlink and uplink,
and bit / queue sizes on both sides of every PRB threshold.
"""

import pytest
from hypothesis import given, strategies as st

from repro.lte.constants import (
    CQI_TABLE,
    DATA_RES_PER_PRB,
    IMPLEMENTATION_EFFICIENCY,
    UPLINK_EFFICIENCY,
)
from repro.lte.mac.schedulers import prbs_for_queue
from repro.lte.phy.tbs import TABLE_PRBS, prbs_needed, transport_block_bits
from repro.lte.rlc import RLC_HEADER_BYTES

MAX_PRBS = 220  # well past the table's last column
CQIS = range(1, 16)
HEADER_ROOM = RLC_HEADER_BYTES + 1


def arithmetic_bits(cqi, n_prb, uplink=False):
    bits = (CQI_TABLE[cqi].efficiency * DATA_RES_PER_PRB * n_prb
            * IMPLEMENTATION_EFFICIENCY)
    if uplink:
        bits *= UPLINK_EFFICIENCY
    return int(bits)


def arithmetic_prbs(cqi, bits, uplink=False):
    """Smallest PRB count whose block carries *bits*, by linear search."""
    n = 0
    while arithmetic_bits(cqi, n, uplink) < bits:
        n += 1
    return n


def test_table_ends_inside_the_tested_range():
    assert 0 < TABLE_PRBS < MAX_PRBS - 1


@pytest.mark.parametrize("uplink", [False, True])
def test_forward_map_equals_arithmetic(uplink):
    for cqi in range(0, 16):
        for n_prb in range(0, MAX_PRBS + 1):
            assert (transport_block_bits(cqi, n_prb, uplink=uplink)
                    == arithmetic_bits(cqi, n_prb, uplink)), (cqi, n_prb)


@pytest.mark.parametrize("uplink", [False, True])
def test_inverse_on_both_sides_of_every_threshold(uplink):
    for cqi in CQIS:
        for n_prb in range(1, MAX_PRBS + 1):
            fits = arithmetic_bits(cqi, n_prb, uplink)
            assert prbs_needed(cqi, fits, uplink=uplink) == n_prb
            assert prbs_needed(cqi, fits + 1, uplink=uplink) == n_prb + 1


def test_queue_sizing_on_both_sides_of_every_threshold():
    for cqi in CQIS:
        for n_prb in range(1, MAX_PRBS + 1):
            # Largest queue that still fits n_prb PRBs with header room.
            fits = arithmetic_bits(cqi, n_prb) // 8 - HEADER_ROOM
            for queue_bytes in (fits, fits + 1):
                if queue_bytes <= 0:
                    continue
                want = arithmetic_prbs(cqi, (queue_bytes + HEADER_ROOM) * 8)
                assert prbs_for_queue(cqi, queue_bytes) == want
                assert want in (n_prb, n_prb + 1)


@given(st.integers(min_value=1, max_value=15),
       st.integers(min_value=10 ** 5, max_value=10 ** 9))
def test_far_beyond_the_table_stays_exact(cqi, queue_bytes):
    n = prbs_for_queue(cqi, queue_bytes)
    need = (queue_bytes + HEADER_ROOM) * 8
    assert arithmetic_bits(cqi, n) >= need > arithmetic_bits(cqi, n - 1)


class TestErrorBehaviour:
    def test_cqi0_carries_nothing_and_cannot_be_sized(self):
        assert transport_block_bits(0, 50) == 0
        assert transport_block_bits(0, MAX_PRBS, uplink=True) == 0
        with pytest.raises(ValueError):
            prbs_needed(0, 1)
        with pytest.raises(ValueError):
            prbs_for_queue(0, 1)

    def test_nothing_to_carry_needs_no_prbs(self):
        assert prbs_needed(0, 0) == 0
        assert prbs_needed(12, 0) == 0
        assert prbs_for_queue(12, 0) == 0
        assert prbs_for_queue(12, -5) == 0

    @pytest.mark.parametrize("cqi", [-1, 16])
    def test_out_of_range_cqi_rejected(self, cqi):
        for n_prb in (10, MAX_PRBS):  # inside and beyond the table
            with pytest.raises(ValueError):
                transport_block_bits(cqi, n_prb)
        for bits in (100, 10 ** 6):
            with pytest.raises(ValueError):
                prbs_needed(cqi, bits)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            transport_block_bits(15, -1)
        with pytest.raises(ValueError):
            prbs_needed(12, -1)
