"""Controller applications built over the northbound API."""

from repro.core.apps.base import App
from repro.core.apps.carrier_aggregation import CaDecision, CarrierAggregationApp
from repro.core.apps.energy import DrxDecision, DrxEnergyApp
from repro.core.apps.eicic import (
    AbsOnlyScheduler,
    EicicMacroScheduler,
    OptimizedEicicApp,
    register_eicic_factories,
)
from repro.core.apps.mec_dash import (
    AssistedClientBinding,
    MecDashApp,
    bitrate_for_cqi,
)
from repro.core.apps.mobility import HandoverDecision, MobilityManagerApp
from repro.core.apps.monitoring import MonitoringApp, UeSample
from repro.core.apps.ran_sharing import RanSharingApp, ShareChange
from repro.core.apps.remote_scheduler import RemoteSchedulerApp

__all__ = [
    "App",
    "CaDecision",
    "CarrierAggregationApp",
    "DrxDecision",
    "DrxEnergyApp",
    "AbsOnlyScheduler",
    "EicicMacroScheduler",
    "OptimizedEicicApp",
    "register_eicic_factories",
    "AssistedClientBinding",
    "MecDashApp",
    "bitrate_for_cqi",
    "HandoverDecision",
    "MobilityManagerApp",
    "MonitoringApp",
    "UeSample",
    "RanSharingApp",
    "ShareChange",
    "RemoteSchedulerApp",
]
