"""Transport block sizing: PRBs + CQI/MCS -> deliverable bits per TTI.

Instead of embedding the full 36.213 TBS tables, the model computes the
transport block size analytically from the CQI spectral efficiency and
the usable data resource elements per PRB, then derates by a calibrated
implementation-efficiency factor so that the simulated ceiling matches
the paper's testbed (about 25 Mb/s downlink at 10 MHz / TM1 / CQI 15;
see DESIGN.md Section 5).  The *shape* of every reproduced experiment
depends only on the relative capacity across CQIs, which this model
takes directly from the standard CQI table.

The map is pure and its useful domain is tiny (16 CQIs x the PRB counts
of the widest standard carrier), and it sits on the per-TTI hot path of
every scheduler, so it is tabulated once at import.  The forward map
indexes the table, the inverse bisects a row of it, and anything beyond
the table is computed from the same arithmetic the table was built with.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.lte.constants import (
    CQI_MAX,
    CQI_TABLE,
    DATA_RES_PER_PRB,
    IMPLEMENTATION_EFFICIENCY,
    PRBS_BY_BANDWIDTH_MHZ,
    UPLINK_EFFICIENCY,
)
from repro.lte.phy.cqi import validate_cqi

TABLE_PRBS = max(PRBS_BY_BANDWIDTH_MHZ.values())
"""Largest PRB count the table covers (the 20 MHz carrier)."""


def _exact_bits(cqi: int, n_prb: int, uplink: bool) -> int:
    """The arithmetic definition of the transport block size."""
    bits = (CQI_TABLE[cqi].efficiency * DATA_RES_PER_PRB * n_prb
            * IMPLEMENTATION_EFFICIENCY)
    if uplink:
        bits *= UPLINK_EFFICIENCY
    return int(bits)


# _BITS[uplink][cqi][n_prb]; rows are strictly increasing for CQI >= 1.
_BITS = tuple(
    tuple(tuple(_exact_bits(cqi, n_prb, uplink)
                for n_prb in range(TABLE_PRBS + 1))
          for cqi in range(CQI_MAX + 1))
    for uplink in (False, True))


def transport_block_bits(cqi: int, n_prb: int, *, uplink: bool = False) -> int:
    """Bits deliverable in one TTI over *n_prb* PRBs at *cqi*.

    Returns 0 for CQI 0 (out of range) or zero PRBs.  The result is the
    MAC-level transport block size after the calibrated derating, i.e.
    what a saturating UDP flow would observe.
    """
    if 0 <= n_prb <= TABLE_PRBS and 0 <= cqi <= CQI_MAX:
        return _BITS[uplink][cqi][n_prb]
    validate_cqi(cqi)
    if n_prb < 0:
        raise ValueError(f"PRB count must be >= 0, got {n_prb}")
    return _exact_bits(cqi, n_prb, uplink)


def capacity_mbps(cqi: int, n_prb: int, *, uplink: bool = False) -> float:
    """Saturated MAC throughput in Mb/s for a constant-CQI link.

    One transport block per 1 ms TTI; 1 bit/ms == 1 kb/s.
    """
    return transport_block_bits(cqi, n_prb, uplink=uplink) / 1000.0


def prbs_needed(cqi: int, bits: int, *, uplink: bool = False) -> int:
    """Minimum PRBs required to carry *bits* in one TTI at *cqi*.

    Returns a PRB count that may exceed the cell bandwidth; callers cap
    it against the cell's PRB budget.  Raises for CQI 0 because no MCS
    can be selected for an out-of-range UE.
    """
    if not (0 < cqi <= CQI_MAX and bits > 0):
        validate_cqi(cqi)
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        if bits == 0:
            return 0
        raise ValueError("cannot size a transport block at CQI 0")
    row = _BITS[uplink][cqi]
    if bits <= row[-1]:
        return bisect_left(row, bits)
    # Beyond the table: seed from the float per-PRB rate (off by at most
    # the integer-truncation slack, a PRB or two either way), step down
    # to an insufficient count, then up to the first sufficient one.
    per_prb = (CQI_TABLE[cqi].efficiency * DATA_RES_PER_PRB
               * IMPLEMENTATION_EFFICIENCY)
    if uplink:
        per_prb *= UPLINK_EFFICIENCY
    n = int(bits / per_prb)
    while _exact_bits(cqi, n, uplink) >= bits:
        n -= 1
    n += 1
    while _exact_bits(cqi, n, uplink) < bits:
        n += 1
    return n
