"""User equipment model.

A UE owns its radio channel, receives downlink transport blocks, keeps
goodput accounting, and buffers uplink traffic awaiting grants.  The
platform itself never talks to the UE -- FlexRAN is transparent to
end devices (Section 3) -- so this class is purely a data-plane
endpoint plus measurement instrumentation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.lte.phy.channel import ChannelModel, FixedCqi

DeliveryCallback = Callable[[int, int], None]  # (nbytes, tti)


class RateMeter:
    """Windowed throughput meter over (tti, bytes) samples."""

    def __init__(self, window_ttis: int = 1000) -> None:
        if window_ttis <= 0:
            raise ValueError(f"window must be positive, got {window_ttis}")
        self.window_ttis = window_ttis
        self._samples: Deque[Tuple[int, int]] = deque()
        self._window_bytes = 0
        self.total_bytes = 0

    def add(self, nbytes: int, tti: int) -> None:
        if nbytes < 0:
            raise ValueError(f"bytes must be >= 0, got {nbytes}")
        self.total_bytes += nbytes
        self._samples.append((tti, nbytes))
        self._window_bytes += nbytes
        self._evict(tti)

    def _evict(self, now: int) -> None:
        horizon = now - self.window_ttis
        while self._samples and self._samples[0][0] <= horizon:
            _, old = self._samples.popleft()
            self._window_bytes -= old

    def rate_mbps(self, now: int) -> float:
        """Throughput over the trailing window ending at *now*, Mb/s."""
        self._evict(now)
        return self._window_bytes * 8 / (self.window_ttis * 1000.0)

    def mean_mbps(self, elapsed_ttis: int) -> float:
        """Lifetime average throughput assuming *elapsed_ttis* of run."""
        if elapsed_ttis <= 0:
            return 0.0
        return self.total_bytes * 8 / (elapsed_ttis * 1000.0)


class Ue:
    """One mobile device attached (or attaching) to a cell."""

    def __init__(self, imsi: str, channel: Optional[ChannelModel] = None, *,
                 labels: Optional[Dict[str, str]] = None,
                 record_series: bool = False,
                 meter_window_ttis: int = 1000) -> None:
        self.imsi = imsi
        self.channel: ChannelModel = channel if channel is not None else FixedCqi(15)
        self.labels: Dict[str, str] = dict(labels or {})
        self.rnti: Optional[int] = None
        self.serving_cell_id: Optional[int] = None
        #: Per-carrier channels for carrier aggregation: cell id ->
        #: channel on that carrier.  The primary carrier falls back to
        #: :attr:`channel`.
        self.carrier_channels: Dict[int, ChannelModel] = {}
        #: Channels toward neighbor cells (cell id -> channel), the
        #: source of the reported neighbor-cell CQIs; a handover swaps
        #: the target's entry with :attr:`channel`.
        self.neighbor_channels: Dict[int, ChannelModel] = {}

        self.meter = RateMeter(meter_window_ttis)
        self.ul_meter = RateMeter(meter_window_ttis)
        self.record_series = record_series
        self.delivery_series: List[Tuple[int, int]] = []

        self.ul_backlog_bytes = 0
        self.ul_sent_bytes = 0

        self._delivery_callbacks: List[DeliveryCallback] = []

    def __repr__(self) -> str:
        return (f"Ue(imsi={self.imsi!r}, rnti={self.rnti}, "
                f"cell={self.serving_cell_id})")

    # -- downlink -------------------------------------------------------

    def on_delivery(self, fn: DeliveryCallback) -> None:
        """Register a sink (TCP receiver, DASH client) for DL bytes."""
        self._delivery_callbacks.append(fn)

    def deliver(self, nbytes: int, tti: int) -> None:
        """Receive *nbytes* of application payload at *tti*."""
        if nbytes <= 0:
            return
        self.meter.add(nbytes, tti)
        if self.record_series:
            self.delivery_series.append((tti, nbytes))
        for fn in list(self._delivery_callbacks):
            fn(nbytes, tti)

    def throughput_mbps(self, now: int) -> float:
        """Downlink goodput over the meter window ending at *now*."""
        return self.meter.rate_mbps(now)

    @property
    def rx_bytes_total(self) -> int:
        return self.meter.total_bytes

    # -- uplink ---------------------------------------------------------

    def generate_ul(self, nbytes: int) -> None:
        """Application produced *nbytes* of uplink data."""
        if nbytes < 0:
            raise ValueError(f"bytes must be >= 0, got {nbytes}")
        self.ul_backlog_bytes += nbytes

    def send_ul(self, max_bytes: int, tti: int) -> int:
        """Transmit up to *max_bytes* of buffered UL data (grant served)."""
        sent = min(self.ul_backlog_bytes, max_bytes)
        if sent > 0:
            self.ul_backlog_bytes -= sent
            self.ul_sent_bytes += sent
            self.ul_meter.add(sent, tti)
        return sent

    # -- measurements ---------------------------------------------------

    def channel_for(self, cell_id: Optional[int]) -> ChannelModel:
        """The channel on a given carrier (primary channel by default)."""
        if cell_id is not None and cell_id in self.carrier_channels:
            return self.carrier_channels[cell_id]
        return self.channel

    def measured_cqi(self, tti: int, *, interference_active: bool = True) -> int:
        """The CQI this UE would report right now."""
        return self.channel.cqi(tti, interference_active=interference_active)

    def measured_sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return self.channel.sinr_db(tti, interference_active=interference_active)
