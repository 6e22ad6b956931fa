"""CQI handling: SINR-to-CQI mapping and CQI arithmetic.

The Channel Quality Indicator is the single most important quantity in
the reproduction: the paper's MEC use case (Section 6.2, Table 2) maps
CQI directly to sustainable video bitrate, and the latency study
(Section 5.3) attributes throughput loss to schedulers acting on
*outdated* CQI.  This module provides the standard-compliant mapping
between link SINR and the 4-bit CQI report.
"""

from __future__ import annotations

from repro.lte.constants import (
    CQI_MAX,
    CQI_MIN,
    CQI_SINR_THRESHOLDS_DB,
    CQI_TABLE,
)


def sinr_to_cqi(sinr_db: float) -> int:
    """Map a wideband SINR (dB) to the highest reportable CQI.

    A UE reports the largest CQI whose BLER at the corresponding MCS
    would not exceed 10%; with the AWGN thresholds in
    :data:`~repro.lte.constants.CQI_SINR_THRESHOLDS_DB` that reduces to
    a simple threshold scan.
    """
    cqi = CQI_MIN
    for candidate in range(1, CQI_MAX + 1):
        if sinr_db >= CQI_SINR_THRESHOLDS_DB[candidate]:
            cqi = candidate
        else:
            break
    return cqi


def cqi_to_sinr_floor(cqi: int) -> float:
    """Return the minimum SINR (dB) at which *cqi* is reportable."""
    validate_cqi(cqi)
    if cqi == 0:
        # CQI 0 means out of range; return just below the CQI-1 floor.
        return CQI_SINR_THRESHOLDS_DB[1] - 1.0
    return CQI_SINR_THRESHOLDS_DB[cqi]


def cqi_efficiency(cqi: int) -> float:
    """Spectral efficiency (information bits per RE) for *cqi*."""
    validate_cqi(cqi)
    return CQI_TABLE[cqi].efficiency


def validate_cqi(cqi: int) -> int:
    """Raise ``ValueError`` unless *cqi* is a valid 4-bit CQI."""
    # A plain int (every caller on the TTI path) is settled by one type
    # test; int subclasses other than bool take the general one.
    if type(cqi) is not int and (
            not isinstance(cqi, int) or isinstance(cqi, bool)):
        raise ValueError(f"CQI must be an int, got {cqi!r}")
    if not CQI_MIN <= cqi <= CQI_MAX:
        raise ValueError(f"CQI must be in [{CQI_MIN}, {CQI_MAX}], got {cqi}")
    return cqi


def clamp_cqi(cqi: int) -> int:
    """Clamp an arbitrary integer into the valid CQI range."""
    return max(CQI_MIN, min(CQI_MAX, int(cqi)))


def degrade_cqi(cqi: int, steps: int) -> int:
    """Return *cqi* degraded by *steps* levels (clamped at CQI 0)."""
    validate_cqi(cqi)
    if steps < 0:
        raise ValueError(f"degradation steps must be >= 0, got {steps}")
    return clamp_cqi(cqi - steps)
