"""LTE numerology and link-adaptation constants.

The values mirror the configuration used throughout the paper's
evaluation: FDD, transmission mode 1 (SISO), 10 MHz bandwidth in band 5,
i.e. 50 physical resource blocks (PRBs) and 1 ms TTIs.

The CQI table is the 4-bit CQI table of 3GPP TS 36.213 (Table 7.2.3-1).
Transport block sizes are derived from spectral efficiency rather than
the exact 36.213 TBS tables; see :mod:`repro.lte.phy.tbs` for the
calibration against the paper's measured throughput ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

SUBFRAMES_PER_FRAME = 10
"""LTE radio frame length in subframes."""

PRBS_10MHZ = 50
"""PRBs available in a 10 MHz LTE carrier (the paper's configuration)."""

PRBS_BY_BANDWIDTH_MHZ: Dict[float, int] = {
    1.4: 6,
    3.0: 15,
    5.0: 25,
    10.0: 50,
    15.0: 75,
    20.0: 100,
}
"""Standard LTE channel bandwidth to PRB-count mapping."""

SUBCARRIERS_PER_PRB = 12
SYMBOLS_PER_SUBFRAME = 14

# Resource elements per PRB-pair usable for data after control region
# (2 OFDM symbols of PDCCH) and cell-specific reference signals.  This
# matches common analytic LTE capacity models for a lightly loaded
# control region.
DATA_RES_PER_PRB = 136

HARQ_PROCESSES = 8
"""Number of parallel stop-and-wait HARQ processes per UE (FDD)."""

HARQ_RTT_TTIS = 8
"""FDD HARQ round-trip: retransmission opportunity 8 TTIs later."""

MAX_HARQ_TX = 4
"""Transmission attempts (1 initial + 3 retransmissions) before drop."""

CQI_MIN = 0
CQI_MAX = 15

MAX_UES_PER_CELL = 256

RNTI_FIRST = 0x0001
RNTI_LAST = 0xFFF3
"""C-RNTI value range usable for UEs (36.321)."""

SRS_PERIOD_TTIS = 10
"""Period of wideband channel-quality (CQI/SRS) refresh in the model."""


@dataclass(frozen=True)
class CqiEntry:
    """One row of the 36.213 CQI table."""

    cqi: int
    modulation: str
    bits_per_symbol: int
    code_rate_x1024: int
    efficiency: float  # information bits per resource element


# 3GPP TS 36.213 Table 7.2.3-1 (4-bit CQI table).
CQI_TABLE: Dict[int, CqiEntry] = {
    0: CqiEntry(0, "out-of-range", 0, 0, 0.0),
    1: CqiEntry(1, "QPSK", 2, 78, 0.1523),
    2: CqiEntry(2, "QPSK", 2, 120, 0.2344),
    3: CqiEntry(3, "QPSK", 2, 193, 0.3770),
    4: CqiEntry(4, "QPSK", 2, 308, 0.6016),
    5: CqiEntry(5, "QPSK", 2, 449, 0.8770),
    6: CqiEntry(6, "QPSK", 2, 602, 1.1758),
    7: CqiEntry(7, "16QAM", 4, 378, 1.4766),
    8: CqiEntry(8, "16QAM", 4, 490, 1.9141),
    9: CqiEntry(9, "16QAM", 4, 616, 2.4063),
    10: CqiEntry(10, "64QAM", 6, 466, 2.7305),
    11: CqiEntry(11, "64QAM", 6, 567, 3.3223),
    12: CqiEntry(12, "64QAM", 6, 666, 3.9023),
    13: CqiEntry(13, "64QAM", 6, 772, 4.5234),
    14: CqiEntry(14, "64QAM", 6, 873, 5.1152),
    15: CqiEntry(15, "64QAM", 6, 948, 5.5547),
}

# SINR (dB) thresholds above which each CQI is reportable, from a
# standard AWGN link-level mapping (about 1.9 dB per CQI step).
CQI_SINR_THRESHOLDS_DB: Dict[int, float] = {
    1: -6.7,
    2: -4.7,
    3: -2.3,
    4: 0.2,
    5: 2.4,
    6: 4.3,
    7: 5.9,
    8: 8.1,
    9: 10.3,
    10: 11.7,
    11: 14.1,
    12: 16.3,
    13: 18.7,
    14: 21.0,
    15: 22.7,
}

# Calibration of the analytic TBS model against the paper's testbed:
# OAI with a COTS UE at 10 MHz TM1 tops out around 25 Mb/s downlink
# (Section 5.4) while the raw 36.213 efficiency at CQI 15 over 50 PRBs
# with DATA_RES_PER_PRB usable REs would give ~37.8 Mb/s.  The factor
# below folds in MAC/RLC/PDCP headers and implementation losses.
IMPLEMENTATION_EFFICIENCY = 0.66

UPLINK_EFFICIENCY = 0.72
"""Additional derating of uplink capacity relative to downlink (the
paper's Fig. 6b shows UL topping out around 17 Mb/s vs 23 Mb/s DL)."""

DEFAULT_DL_BANDWIDTH_MHZ = 10.0
DEFAULT_UL_BANDWIDTH_MHZ = 10.0
DEFAULT_BAND = 5
DEFAULT_TRANSMISSION_MODE = 1


def prbs_for_bandwidth(mhz: float) -> int:
    """Return the PRB count for a standard LTE bandwidth in MHz."""
    try:
        return PRBS_BY_BANDWIDTH_MHZ[mhz]
    except KeyError:
        raise ValueError(
            f"{mhz} MHz is not a standard LTE bandwidth; expected one of "
            f"{sorted(PRBS_BY_BANDWIDTH_MHZ)}"
        ) from None
