"""PHY abstraction: channel models, CQI mapping, transport block sizing."""

from repro.lte.phy.channel import (
    ChannelModel,
    FixedCqi,
    FixedSinr,
    GaussMarkovSinr,
    InterferenceChannel,
    SquareWaveCqi,
    TraceCqi,
)
from repro.lte.phy.cqi import cqi_to_sinr_floor, sinr_to_cqi, validate_cqi
from repro.lte.phy.tbs import capacity_mbps, prbs_needed, transport_block_bits

__all__ = [
    "ChannelModel",
    "FixedCqi",
    "FixedSinr",
    "GaussMarkovSinr",
    "InterferenceChannel",
    "SquareWaveCqi",
    "TraceCqi",
    "cqi_to_sinr_floor",
    "sinr_to_cqi",
    "validate_cqi",
    "capacity_mbps",
    "prbs_needed",
    "transport_block_bits",
]
