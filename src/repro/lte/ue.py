"""User equipment model.

A UE owns its radio channel, receives downlink transport blocks, keeps
goodput accounting, and buffers uplink traffic awaiting grants.  The
platform itself never talks to the UE -- FlexRAN is transparent to
end devices (Section 3) -- so this class is purely a data-plane
endpoint plus measurement instrumentation.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
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


class CarrierChannels(Dict[int, ChannelModel]):
    """``cell id -> channel``; tells its UE when an entry is replaced.

    Entries are assigned and deleted one at a time: the bulk mutators
    would change what a carrier reads without anyone hearing of it.
    """

    __slots__ = ("_swapped",)

    def __init__(self, swapped: Callable[[], None]) -> None:
        super().__init__()
        self._swapped = swapped

    def __setitem__(self, cell_id: int, channel: ChannelModel) -> None:
        super().__setitem__(cell_id, channel)
        self._swapped()

    def __delitem__(self, cell_id: int) -> None:
        super().__delitem__(cell_id)
        self._swapped()

    def _unpublished(self, *args, **kwargs):
        raise TypeError(
            "assign or delete carrier channels one entry at a time")

    update = pop = popitem = setdefault = clear = __ior__ = _unpublished


class Ue:
    """One mobile device attached (or attaching) to a cell."""

    def __init__(self, imsi: str, channel: Optional[ChannelModel] = None, *,
                 labels: Optional[Dict[str, str]] = None,
                 record_series: bool = False,
                 meter_window_ttis: int = 1000) -> None:
        self.imsi = imsi
        self._channel: ChannelModel = (
            channel if channel is not None else FixedCqi(15))
        #: cell id -> callback of a serving cell that wants to hear when
        #: a channel object of this UE is replaced (its SRS schedule
        #: stops observing a channel that declares ``time_invariant``).
        self._channel_watchers: Dict[int, Callable[[], None]] = {}
        self.labels: Dict[str, str] = dict(labels or {})
        self.rnti: Optional[int] = None
        self.serving_cell_id: Optional[int] = None
        #: Per-carrier channels for carrier aggregation: cell id ->
        #: channel on that carrier.  The primary carrier falls back to
        #: :attr:`channel`.
        self.carrier_channels = CarrierChannels(self._channels_swapped)
        self._neighbor_channels: Dict[int, ChannelModel] = {}

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

    # -- channels -------------------------------------------------------

    def _set_channel(self, channel: ChannelModel) -> None:
        self._channel = channel
        self._channels_swapped()

    #: The primary carrier's channel.  Assigning a new object is how a
    #: link changes character mid-run; serving cells are told.  Read
    #: through a C-level getter: the stats pass reads it per UE.
    channel = property(attrgetter("_channel"), _set_channel)

    def _set_neighbor_channels(self,
                               channels: Dict[int, ChannelModel]) -> None:
        self._neighbor_channels = channels
        self._channels_swapped()

    #: Channels toward neighbor cells (cell id -> channel), the source of
    #: the reported neighbor-cell CQIs; a handover swaps the target's
    #: entry with :attr:`channel`.  Assign a new dict to change them on
    #: an attached UE: serving cells hear of that, not of an edit in
    #: place.
    neighbor_channels = property(attrgetter("_neighbor_channels"),
                                 _set_neighbor_channels)

    def watch_channels(self, cell_id: int, fn: Callable[[], None]) -> None:
        """Call *fn* whenever a channel object of this UE is replaced."""
        self._channel_watchers[cell_id] = fn

    def unwatch_channels(self, cell_id: int) -> None:
        self._channel_watchers.pop(cell_id, None)

    def _channels_swapped(self) -> None:
        for fn in self._channel_watchers.values():
            fn()

    # -- measurements ---------------------------------------------------

    def channel_for(self, cell_id: Optional[int]) -> ChannelModel:
        """The channel on a given carrier (primary channel by default)."""
        if cell_id is not None and cell_id in self.carrier_channels:
            return self.carrier_channels[cell_id]
        return self._channel

    def measured_cqi(self, tti: int, *, interference_active: bool = True) -> int:
        """The CQI this UE would report right now."""
        return self.channel.cqi(tti, interference_active=interference_active)

    def measured_sinr_db(self, tti: int, *, interference_active: bool = True) -> float:
        return self.channel.sinr_db(tti, interference_active=interference_active)
