"""The FlexRAN master controller: RIB, task manager, northbound API."""

from repro.core.controller.conflicts import (
    ConflictOutcome,
    ConflictResolver,
)
from repro.core.controller.events import EventNotificationService
from repro.core.controller.master import MasterController
from repro.core.controller.northbound import NorthboundApi, StatsSubscription
from repro.core.controller.registry import AppState, RegistryService
from repro.core.controller.rib import AgentNode, CellNode, Rib, UeNode
from repro.core.controller.rib_updater import RibUpdater
from repro.core.controller.task_manager import CycleRecord, CycleStats, TaskManager

__all__ = [
    "ConflictOutcome",
    "ConflictResolver",
    "EventNotificationService",
    "MasterController",
    "NorthboundApi",
    "StatsSubscription",
    "AppState",
    "RegistryService",
    "AgentNode",
    "CellNode",
    "Rib",
    "UeNode",
    "RibUpdater",
    "CycleRecord",
    "CycleStats",
    "TaskManager",
]
