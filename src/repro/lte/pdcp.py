"""PDCP: packet ingress from the core network into the radio bearers.

The Packet Data Convergence Protocol sits between the EPC (S1-U) and
RLC.  The model keeps the parts FlexRAN observes and reports on --
sequence numbering, header overhead and per-bearer byte counters (the
paper's RRC control module reports "radio bearer statistics") -- and
forwards SDUs into the RLC transmission queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

PDCP_HEADER_BYTES = 2
PDCP_SN_MODULUS = 4096  # 12-bit sequence numbers


@dataclass
class PdcpStats:
    """Counters FlexRAN exposes per bearer."""

    tx_sdus: int = 0
    tx_bytes: int = 0
    rx_sdus: int = 0
    rx_bytes: int = 0


class PdcpEntity:
    """Per-UE PDCP with one instance shared across its bearers.

    ``ingress`` stamps a sequence number, accounts the header, and
    returns the PDU size to be placed on the RLC queue.  *on_change* is
    called with the RNTI whenever a method moves the counters.
    """

    def __init__(self, rnti: int, on_change: Callable[[int], None]) -> None:
        self.rnti = rnti
        self._tx_sn: Dict[int, int] = {}
        self.stats: Dict[int, PdcpStats] = {}
        self._on_change = on_change

    def _bearer_stats(self, lcid: int) -> PdcpStats:
        if lcid not in self.stats:
            self.stats[lcid] = PdcpStats()
        return self.stats[lcid]

    def ingress(self, lcid: int, sdu_bytes: int) -> int:
        """Account one downlink SDU; returns the PDU size in bytes."""
        if sdu_bytes <= 0:
            raise ValueError(f"SDU size must be positive, got {sdu_bytes}")
        sn = self._tx_sn.get(lcid, 0)
        self._tx_sn[lcid] = (sn + 1) % PDCP_SN_MODULUS
        st = self._bearer_stats(lcid)
        st.tx_sdus += 1
        st.tx_bytes += sdu_bytes
        self._on_change(self.rnti)
        return sdu_bytes + PDCP_HEADER_BYTES

    def egress(self, lcid: int, pdu_bytes: int) -> int:
        """Account delivered bytes on the receive side; returns SDU bytes."""
        if pdu_bytes <= 0:
            return 0
        sdu = max(0, pdu_bytes - PDCP_HEADER_BYTES)
        st = self._bearer_stats(lcid)
        st.rx_sdus += 1
        st.rx_bytes += sdu
        self._on_change(self.rnti)
        return sdu

    def tx_sn(self, lcid: int) -> int:
        """Next transmit sequence number for *lcid*."""
        return self._tx_sn.get(lcid, 0)
