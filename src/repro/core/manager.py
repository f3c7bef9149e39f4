"""The proposed energy-efficient storage management policy.

:class:`EnergyEfficientPolicy` is the paper's contribution: Algorithm 1's
power-management function executed at the end of every (adaptive)
monitoring period, plus the §V runtime power-saving method.  Each
management run performs, in order:

1. determine the Logical I/O pattern of every data item (§IV-B);
2. determine hot and cold disk enclosures (§IV-C);
3. determine data placement — Algorithms 2 and 3 with the N_hot retry
   loop (§IV-D);
4. migrate data items per the plan, evacuations first (§V-A);
5. determine and apply write delay for applicable items (§IV-E, §V-B);
6. determine and apply preload for applicable items (§IV-F, §V-C);
7. enable the power-off function for cold enclosures only (§IV-G);
8. compute the next monitoring period ``avg(long intervals) × α``
   (§IV-H).

Between management points the §V-D triggers can force an immediate rerun
when the I/O pattern shifts.

Constructor flags switch individual mechanisms off for the ablation
benchmarks; all default to the paper's full method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.actions.plan import ActionPlan
from repro.actions.records import (
    EnableWriteDelay,
    FlushItem,
    PreloadItem,
    SetPowerOffEnabled,
    UnpinItem,
)
from repro.baselines.base import PowerPolicy
from repro.engine.clock import Throttle
from repro.core.cache_policy import (
    select_preload_items,
    select_write_delay_items,
)
from repro.core.hotcold import HotColdSplit
from repro.core.patterns import (
    DEFAULT_IOPS_BUCKET_SECONDS,
    IOPattern,
    build_profiles,
    pattern_counts,
)
from repro.core.period import collect_long_intervals, next_monitoring_period
from repro.core.placement import determine_placement
from repro.core.triggers import PatternChangeTriggers


@dataclass(frozen=True)
class ManagementSnapshot:
    """What one management run decided (kept for analysis/reports).

    ``moves_planned`` counts the placement plan; under fault injection
    :class:`~repro.errors.MigrationAbortedError` can cancel some of
    those moves, so the snapshot also carries what the action log says
    actually happened: :attr:`moves_executed` and :attr:`moves_aborted`.
    They are deliberately *not* dataclass fields — the golden replay
    test compares ``asdict(snapshot)`` bit-for-bit across the
    :mod:`repro.actions` refactor, and extra observability must not
    change the serialized shape.
    """

    time: float
    pattern_counts: dict[IOPattern, int]
    hot: tuple[str, ...]
    cold: tuple[str, ...]
    moves_planned: int
    bytes_moved: int
    write_delay_items: int
    preload_items: int
    next_period: float
    triggered: bool

    # Non-field attributes (class-level defaults, set per-instance via
    # object.__setattr__): executed/aborted move counts from the action
    # log, fixing the over-reporting of moves_planned under faults.
    moves_executed = 0
    moves_aborted = 0


class EnergyEfficientPolicy(PowerPolicy):
    """The paper's application-collaborative power-saving method."""

    name = "proposed"

    def __init__(
        self,
        enable_migration: bool = True,
        enable_write_delay: bool = True,
        enable_preload: bool = True,
        adaptive_period: bool = True,
        enable_triggers: bool = True,
        iops_bucket_seconds: float = DEFAULT_IOPS_BUCKET_SECONDS,
    ) -> None:
        super().__init__()
        self.enable_migration = enable_migration
        self.enable_write_delay = enable_write_delay
        self.enable_preload = enable_preload
        self.adaptive_period = adaptive_period
        self.enable_triggers = enable_triggers
        self.iops_bucket_seconds = iops_bucket_seconds

        self._period = 0.0
        self._next_checkpoint: float | None = None
        self._split: HotColdSplit | None = None
        self._triggers: PatternChangeTriggers | None = None
        self._trigger_throttle: Throttle | None = None
        self._trigger_count = 0
        #: One snapshot per management run, in time order.
        self.snapshots: list[ManagementSnapshot] = []

    # ------------------------------------------------------------------
    # PowerPolicy interface
    # ------------------------------------------------------------------
    def on_start(self, now: float) -> None:
        """Initialise the monitoring period and pattern-change triggers."""
        context = self._require_context()
        self._period = context.config.initial_monitoring_period
        self._next_checkpoint = now + self._period
        config = context.config
        self._triggers = PatternChangeTriggers(config.break_even_time)
        self._triggers.reset(now)
        # Trigger evaluation is cheap but runs per I/O; throttle it to a
        # few checks per break-even period (§V-D).
        self._trigger_throttle = Throttle(
            config.break_even_time * config.trigger_check_fraction
        )
        self._trigger_throttle.reset(now)
        # Until the first analysis nothing is known: keep everything on.
        self.executor().apply(
            now,
            ActionPlan(
                [
                    SetPowerOffEnabled(enclosure.name, False)
                    for enclosure in context.enclosures
                ]
            ),
        )

    def next_checkpoint(self) -> float | None:
        """Time of the next periodic management checkpoint."""
        return self._next_checkpoint

    def on_checkpoint(self, now: float) -> ActionPlan | None:
        """Run one management cycle (analysis plus determination)."""
        return self._run_management(now, triggered=False)

    def io_gate(self) -> float:
        """The trigger throttle's next allowed time, or ``inf`` when off.

        :meth:`after_io` acts only while triggers are enabled, a split
        exists and the throttle is open.
        """
        throttle = self._trigger_throttle
        if not self.enable_triggers or self._split is None or throttle is None:
            return math.inf
        return throttle.next_allowed

    def after_io(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
        response_time: float,
    ) -> None:
        """Check pattern-change triggers against the finished I/O."""
        if not self.enable_triggers or self._split is None:
            return
        throttle = self._trigger_throttle
        # throttle.ready(timestamp), read from its slot: the same test
        # as io_gate, for callers other than the kernel.
        if throttle is None or timestamp < throttle.next_allowed:
            return
        context = self._require_context()
        throttle.arm(timestamp)
        assert self._triggers is not None
        result = self._triggers.check(
            timestamp,
            hot=self._split.hot,
            cold=self._split.cold,
            storage_monitor=context.storage_monitor,
        )
        if result.fired:
            self._trigger_count += 1
            self._run_management(timestamp, triggered=True)

    # ------------------------------------------------------------------
    # the power-management function (Algorithm 1)
    # ------------------------------------------------------------------
    def _run_management(self, now: float, triggered: bool) -> ActionPlan | None:
        context = self._require_context()
        config = context.config
        app = context.app_monitor
        window_start = app.window_start
        if now <= window_start:
            return None

        virt = context.virtualization
        # One pass over the placed items: the cached route carries both
        # the enclosure name and the size.
        item_sizes: dict[str, int] = {}
        item_enclosures: dict[str, str] = {}
        for item in virt.item_ids():
            _, enclosure, size = virt.route(item)
            item_sizes[item] = size
            item_enclosures[item] = enclosure

        # Step 1: logical I/O patterns (fed columns, not record objects).
        profiles = build_profiles(
            app.window_columns(),
            window_start,
            now,
            config.break_even_time,
            item_sizes,
            item_enclosures,
            iops_bucket_seconds=self.iops_bucket_seconds,
        )

        # Steps 2-3: hot/cold split and placement plan (with hysteresis
        # toward the current hot set, to avoid migration thrash).
        previous_split = self._split
        split, moves = determine_placement(
            profiles,
            virt.enclosure_names,
            config.max_iops_random,
            config.enclosure_size_bytes,
            self.iops_bucket_seconds,
            preferred_hot=set(self._split.hot) if self._split else None,
        )
        self.determinations += 1
        self._split = split

        # Step 4: plan and apply migrations (each moved item's dirty
        # data is flushed first, so its delayed writes land on its old
        # home before the mapping changes; unaffected items keep
        # buffering — a full flush here would wake every cold enclosure
        # each window).
        executor = self.executor()
        migration_plan = ActionPlan()
        bytes_moved = 0
        moves_executed = 0
        moves_aborted = 0
        # Where each item sits now: only a migration changes that.
        locations = item_enclosures
        if self.enable_migration and moves:
            migration_plan.extend(FlushItem(move.item_id) for move in moves)
            # Evacuations free the space consolidation needs, so they go
            # first; the sort is stable within each class (§V-A).
            migration_plan.extend(
                sorted(moves, key=lambda move: not move.evacuation)
            )
            report = executor.apply(now, migration_plan)
            bytes_moved = report.bytes_moved
            moves_executed = report.moves_executed
            moves_aborted = report.moves_aborted
            locations = {
                item: virt.route(item)[1] for item in virt.item_ids()
            }

        # Step 5: write delay for applicable data items.
        write_delay_items: set[str] = set()
        if self.enable_write_delay:
            write_delay_items = select_write_delay_items(
                profiles,
                split.cold,
                locations,
                config.write_delay_cache_bytes,
            )

        # Step 6: preload for applicable data items.
        preload_items: list[str] = []
        if self.enable_preload:
            preload_items = select_preload_items(
                profiles,
                split.cold,
                locations,
                config.preload_cache_bytes,
                already_pinned=context.cache.preload.item_ids(),
            )
        stale_items = sorted(
            context.cache.preload.item_ids() - set(preload_items)
        )

        # Steps 5-7 as one cache/power plan: reselect write delay, evict
        # stale preloads, pin the new set, then enable power-off only
        # for the cold enclosures — the executor's degraded-mode gate
        # keeps a cold enclosure powered while its spin-ups keep failing.
        cache_power_plan = ActionPlan()
        # EnableWriteDelay canonicalises the set itself (sorted tuple).
        cache_power_plan.add(
            EnableWriteDelay(tuple(write_delay_items))  # check: ignore[D204]
        )
        cache_power_plan.extend(UnpinItem(stale) for stale in stale_items)
        cache_power_plan.extend(PreloadItem(item) for item in preload_items)
        cache_power_plan.extend(
            SetPowerOffEnabled(
                enclosure.name, split.is_cold(enclosure.name)
            )
            for enclosure in context.enclosures
        )
        executor.apply(now, cache_power_plan)

        # Step 8: next monitoring period.
        if self.adaptive_period:
            self._period = next_monitoring_period(
                collect_long_intervals(profiles),
                self._period,
                config.monitoring_alpha,
                config.max_monitoring_period,
                min_period=config.initial_monitoring_period,
            )
        self._next_checkpoint = now + self._period

        app.begin_window(now)
        context.storage_monitor.begin_window(now)
        assert self._triggers is not None
        self._triggers.reset(now)

        # Anti-storm guard: if this run changed nothing (same hot/cold
        # split, no data moved), re-running management cannot fix
        # whatever condition fired — e.g. a hot enclosure whose traffic
        # is entirely absorbed by the cache looks physically idle while
        # its logical pattern stays P3.  Suspend trigger checks until
        # the next scheduled checkpoint.
        unchanged = (
            previous_split is not None
            and previous_split.hot == split.hot
            and bytes_moved == 0
        )
        if (
            unchanged
            and self._next_checkpoint is not None
            and self._trigger_throttle is not None
        ):
            self._trigger_throttle.defer_until(self._next_checkpoint)

        snapshot = ManagementSnapshot(
            time=now,
            pattern_counts=pattern_counts(profiles),
            hot=split.hot,
            cold=split.cold,
            moves_planned=len(moves),
            bytes_moved=bytes_moved,
            write_delay_items=len(write_delay_items),
            preload_items=len(preload_items),
            next_period=self._period,
            triggered=triggered,
        )
        object.__setattr__(snapshot, "moves_executed", moves_executed)
        object.__setattr__(snapshot, "moves_aborted", moves_aborted)
        self.snapshots.append(snapshot)

        applied = ActionPlan(list(migration_plan.actions))
        applied.extend(cache_power_plan)
        return applied

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    @property
    def trigger_count(self) -> int:
        """How many management runs the §V-D triggers forced."""
        return self._trigger_count
