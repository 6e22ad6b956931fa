"""Discontinuous reception (DRX): UE sleep cycles under MAC control.

"Applying DRX commands" is one of the data-plane *actions* the paper's
Table 1 delegates to the eNodeB (the decision belongs to the control
plane).  The model implements connected-mode DRX as 36.321 abstracts
it: a UE with DRX enabled listens only during the on-duration at the
start of each DRX cycle, plus an inactivity window after any downlink
activity; while asleep it cannot be scheduled.  Awake-time accounting
gives the energy proxy the energy-saving application optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class DrxConfig:
    """Connected-mode DRX parameters (36.331 subset)."""

    cycle_ttis: int = 80
    on_duration_ttis: int = 8
    inactivity_ttis: int = 10

    def __post_init__(self) -> None:
        if self.cycle_ttis <= 0:
            raise ValueError(f"DRX cycle must be positive, got "
                             f"{self.cycle_ttis}")
        if not 0 < self.on_duration_ttis <= self.cycle_ttis:
            raise ValueError(
                f"on-duration must be in (0, cycle]; got "
                f"{self.on_duration_ttis} for cycle {self.cycle_ttis}")
        if self.inactivity_ttis < 0:
            raise ValueError(f"inactivity timer must be >= 0, got "
                             f"{self.inactivity_ttis}")


@dataclass
class DrxState:
    """Runtime DRX state of one UE."""

    config: Optional[DrxConfig] = None
    last_activity_tti: int = -10 ** 9
    awake_ttis: int = 0
    asleep_ttis: int = 0

    @property
    def enabled(self) -> bool:
        return self.config is not None

    def is_awake(self, tti: int) -> bool:
        """Whether the UE listens to the PDCCH at *tti*."""
        if self.config is None:
            return True
        if tti - self.last_activity_tti <= self.config.inactivity_ttis:
            return True  # inactivity timer keeps the UE awake
        return (tti % self.config.cycle_ttis) < self.config.on_duration_ttis

    def note_activity(self, tti: int) -> None:
        """Downlink assignment addressed this UE: restart inactivity."""
        self.last_activity_tti = tti

    def account(self, tti: int) -> None:
        """Per-TTI awake/asleep accounting (the energy proxy)."""
        if self.is_awake(tti):
            self.awake_ttis += 1
        else:
            self.asleep_ttis += 1

    def awake_fraction(self) -> float:
        total = self.awake_ttis + self.asleep_ttis
        return self.awake_ttis / total if total else 1.0


class DrxManager:
    """DRX state of every UE of one eNodeB.

    *on_change* is called with the RNTI whenever a command or downlink
    activity changes a UE's DRX state.
    """

    def __init__(self, on_change: Callable[[int], None]) -> None:
        self._on_change = on_change
        self._states: Dict[int, DrxState] = {}
        #: Awake/asleep TTIs accumulated by UEs whose DRX was later
        #: disabled or removed: the energy proxy keeps the total even
        #: though the per-UE state is gone.
        self.retired_awake_ttis = 0
        self.retired_asleep_ttis = 0

    def state(self, rnti: int) -> DrxState:
        if rnti not in self._states:
            self._states[rnti] = DrxState()
        return self._states[rnti]

    def configure(self, rnti: int, config: Optional[DrxConfig]) -> None:
        """Enable (or, with ``None``, disable) DRX for a UE.

        Disabling drops the per-UE state entirely -- a disabled UE is
        always awake and must not keep costing the per-TTI accounting
        loop -- after folding its awake/asleep counters into the
        retained energy totals.
        """
        if config is None:
            self._retire(rnti)
        else:
            self.state(rnti).config = config
        self._on_change(rnti)

    def _retire(self, rnti: int) -> None:
        state = self._states.pop(rnti, None)
        if state is not None:
            self.retired_awake_ttis += state.awake_ttis
            self.retired_asleep_ttis += state.asleep_ttis

    def is_configured(self, rnti: int) -> bool:
        """Whether *rnti* currently has DRX enabled."""
        return rnti in self._states

    def is_awake(self, rnti: int, tti: int) -> bool:
        # Fast path: a UE never touched by a DRX command has no state
        # and is always awake.  Avoiding state() here keeps _states
        # populated only with DRX-relevant UEs, so per-TTI accounting
        # stays proportional to DRX users rather than attached UEs.
        state = self._states.get(rnti)
        return state.is_awake(tti) if state is not None else True

    def note_activity(self, rnti: int, tti: int) -> None:
        if rnti in self._states:  # once per transport block: no .get
            self._states[rnti].note_activity(tti)
            self._on_change(rnti)

    def account_all(self, tti: int) -> None:
        for state in self._states.values():
            state.account(tti)

    def remove(self, rnti: int) -> None:
        self._retire(rnti)

    def enabled_rntis(self) -> List[int]:
        return sorted(r for r, s in self._states.items() if s.enabled)
