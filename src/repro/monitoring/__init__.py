"""Monitoring subsystem: application and storage monitors (paper §III)."""

from repro.monitoring.application import ApplicationMonitor, ResponseStats
from repro.monitoring.storage import StorageMonitor
from repro.monitoring.tiers import TierBooks, TierReport
from repro.monitoring.timeline import PowerTimeline, TimelinePoint

__all__ = [
    "ApplicationMonitor",
    "PowerTimeline",
    "ResponseStats",
    "StorageMonitor",
    "TierBooks",
    "TierReport",
    "TimelinePoint",
]
