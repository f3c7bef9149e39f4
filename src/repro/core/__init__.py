"""Core power management: the paper's primary contribution.

Logical I/O pattern classification (P0-P3), hot/cold enclosure
determination, data-placement Algorithms 2 and 3, write-delay and
preload selection, the adaptive monitoring period, the runtime
pattern-change triggers, and the :class:`EnergyEfficientPolicy` manager
tying them together (Algorithm 1).
"""

from repro.core.cache_policy import (
    select_preload_items,
    select_write_delay_items,
)
from repro.core.hotcold import HotColdSplit
from repro.core.intervals import (
    Interval,
    IOSequence,
    ItemActivity,
    extract_activity,
)
from repro.core.manager import EnergyEfficientPolicy, ManagementSnapshot
from repro.core.patterns import (
    IOPattern,
    ProfileTable,
    build_profiles,
    classify,
    pattern_counts,
    pattern_fractions,
)
from repro.core.period import next_monitoring_period
from repro.core.placement import determine_placement
from repro.core.triggers import PatternChangeTriggers, TriggerResult

__all__ = [
    "EnergyEfficientPolicy",
    "HotColdSplit",
    "IOPattern",
    "IOSequence",
    "Interval",
    "ItemActivity",
    "ManagementSnapshot",
    "PatternChangeTriggers",
    "ProfileTable",
    "TriggerResult",
    "build_profiles",
    "classify",
    "determine_placement",
    "extract_activity",
    "next_monitoring_period",
    "pattern_counts",
    "pattern_fractions",
    "select_preload_items",
    "select_write_delay_items",
]
