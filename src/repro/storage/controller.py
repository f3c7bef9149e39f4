"""Storage controller: routes logical I/O through cache to enclosures.

The controller is the RAID-controller analogue of the paper's testbed
(Fig 5): it owns the battery-backed :class:`~repro.storage.cache.StorageCache`,
consults the :class:`~repro.storage.virtualization.BlockVirtualization`
mapping, and issues physical I/O to :class:`~repro.storage.enclosure.DiskEnclosure`
objects.  It also exposes the three power-saving primitives the runtime
method drives (paper §V): item migration, preload, and write-delay
control — each of which generates *real* physical I/O in the simulation,
so their energy and response-time costs are charged, exactly as the
paper's measurements include them (§VII-A.4).

Physical I/O is reported to an optional tap (the Storage Monitor
subscribes there) as ``(timestamp, enclosure, count)``: the only fields
of a :class:`~repro.trace.records.PhysicalIORecord` its subscribers
read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, TypeVar

from repro import units
from repro.capture import Snapshottable
from repro.units import Bytes, Rate, Seconds
from repro.errors import (
    CapacityError,
    EnclosureUnavailableError,
    MappingError,
    MigrationAbortedError,
    SpinUpFailedError,
    ValidationError,
)
from repro.storage import cache as cache_mod
from repro.storage.cache import StorageCache
from repro.storage.enclosure import DiskEnclosure, IOResult
from repro.storage.tiers import TierKind
from repro.storage.virtualization import BlockVirtualization

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.clock import FaultClock

#: Latency of an I/O served entirely from the controller cache.
CACHE_HIT_LATENCY = 0.0002

#: Transfer unit used to count physical I/Os of bulk operations.
BULK_IO_UNIT = units.MB

#: Sustained per-enclosure bandwidth for bulk sequential transfers
#: (preload bursts and write-delay flushes).
BULK_BANDWIDTH_BPS = 150.0 * units.MB

#: Migration copies run in chunks of this size so application I/O only
#: ever queues behind one chunk (~0.4 s), not behind a whole data item.
MIGRATION_CHUNK_BYTES = 64 * units.MB


_T = TypeVar("_T")

#: The physical tap: ``(timestamp, enclosure name, count)`` of each
#: physical I/O batch.  Its subscribers count I/Os and time gaps per
#: enclosure; nothing reads a block address, I/O type or item there.
PhysicalTapFast = Callable[[float, str, int], None]


class StorageController(Snapshottable):
    """The storage unit's controller: cache + routing + power primitives.

    Its snapshot state is its books: I/O counters and fault/retry state.
    The cache and virtualization snapshot as separate components.
    """

    __slots__ = (
        "virtualization",
        "cache",
        "migration_throughput_bps",
        "bulk_bandwidth_bps",
        "_physical_tap",
        "retry_backoff_base",
        "retry_backoff_cap",
        "logical_io_count",
        "cache_hit_count",
        "migrated_bytes",
        "migration_count",
        "preloaded_bytes",
        "flushed_bytes",
        "promotion_count",
        "demotion_count",
        "archive_move_count",
        "replication_count",
        "_archive_devices",
        "archive_serviced_items",
        "_device_service_seconds",
        "_device_service_ios",
        "_fault_clock",
        "_battery_failed",
        "_emergency_items",
        "_policy_selected",
        "fault_denied_ios",
        "fault_delayed_ios",
        "fault_spin_up_retries",
        "fault_delay_seconds",
        "fault_max_queue_delay",
        "emergency_buffered_ios",
        "emergency_flushes",
        "migration_aborts",
        "_at_risk_last_time",
        "_at_risk_last_bytes",
        "at_risk_peak_bytes",
        "at_risk_byte_seconds",
        "at_risk_samples",
    )

    _LOGS = frozenset({"at_risk_samples"})

    _REBUILT = frozenset(
        {
            "virtualization",
            "cache",
            "_physical_tap",
            "_fault_clock",
            "_archive_devices",
        }
    )

    def __init__(
        self,
        virtualization: BlockVirtualization,
        cache: StorageCache,
        migration_throughput_bps: Rate = 60.0 * units.MB,
        bulk_bandwidth_bps: Rate = BULK_BANDWIDTH_BPS,
        physical_tap: PhysicalTapFast | None = None,
        retry_backoff_base: Seconds = 1.0,
        retry_backoff_cap: Seconds = 64.0,
    ) -> None:
        if migration_throughput_bps <= 0:
            raise ValidationError("migration throughput must be positive")
        if bulk_bandwidth_bps <= 0:
            raise ValidationError("bulk bandwidth must be positive")
        if retry_backoff_base <= 0 or retry_backoff_cap < retry_backoff_base:
            raise ValidationError(
                "retry backoff requires 0 < base <= cap, got "
                f"base={retry_backoff_base!r}, cap={retry_backoff_cap!r}"
            )
        self.virtualization = virtualization
        self.cache = cache
        self.migration_throughput_bps = migration_throughput_bps
        self.bulk_bandwidth_bps = bulk_bandwidth_bps
        self._physical_tap = physical_tap
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap

        self.logical_io_count = 0
        self.cache_hit_count = 0
        self.migrated_bytes: Bytes = 0
        self.migration_count = 0
        self.preloaded_bytes: Bytes = 0
        self.flushed_bytes: Bytes = 0

        # Tier lifecycle books (:mod:`repro.storage.tiers`).  The service
        # books are accumulated apart from every replay float, so keeping
        # them on every run leaves the replay results unchanged.
        self.promotion_count = 0
        self.demotion_count = 0
        self.archive_move_count = 0
        self.replication_count = 0
        #: Devices of the archive tier; service routed to one of these
        #: records the item in :attr:`archive_serviced_items`.
        self._archive_devices = frozenset(
            device
            for tier in virtualization.tiers()
            if tier.kind is TierKind.ARCHIVE
            for device in tier.devices
        )
        #: Items whose primary copy was serviced while on an archive
        #: device — the auditor requires a promote record for each.
        self.archive_serviced_items: set[str] = set()
        #: Per-device latency books (service seconds / served I/Os) for
        #: the per-tier report.
        names = self.virtualization.enclosure_names
        self._device_service_seconds: dict[str, float] = {
            name: 0.0 for name in names
        }
        self._device_service_ios: dict[str, int] = {name: 0 for name in names}

        # Fault handling (:mod:`repro.faults`).  All of this is inert —
        # strictly zero-cost on the hot path — until a fault clock is
        # attached, so zero-fault runs take the pre-fault code paths.
        self._fault_clock: FaultClock | None = None
        self._battery_failed = False
        #: Items we selected into write delay as an emergency buffer
        #: because their home enclosure was inside an outage window.
        self._emergency_items: set[str] = set()
        #: The policy's own most recent write-delay selection, so a
        #: drained emergency item is only deselected when the policy
        #: does not also want it.
        self._policy_selected: set[str] = set()
        self.fault_denied_ios = 0
        self.fault_delayed_ios = 0
        self.fault_spin_up_retries = 0
        self.fault_delay_seconds: Seconds = 0.0
        self.fault_max_queue_delay = 0.0
        self.emergency_buffered_ios = 0
        self.emergency_flushes = 0
        self.migration_aborts = 0
        self._at_risk_last_time: Seconds | None = None
        self._at_risk_last_bytes: Bytes = 0
        self.at_risk_peak_bytes: Bytes = 0
        self.at_risk_byte_seconds = 0.0
        self.at_risk_samples: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def set_physical_tap(self, tap: PhysicalTapFast | None) -> None:
        """Attach the storage monitor's physical-I/O listener."""
        self._physical_tap = tap

    def set_fault_clock(self, clock: "FaultClock") -> None:
        """Attach the simulation's fault oracle (:mod:`repro.faults`)."""
        self._fault_clock = clock

    def device_service_seconds(self, device: str) -> float:
        """Accumulated application service seconds on one device."""
        return self._device_service_seconds.get(device, 0.0)

    def device_service_ios(self, device: str) -> int:
        """Application I/Os served physically by one device."""
        return self._device_service_ios.get(device, 0)

    @property
    def battery_failed(self) -> bool:
        """Whether the cache battery has failed (seen by the auditor)."""
        return self._battery_failed

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def on_time(self, now: Seconds) -> None:
        """Advance fault bookkeeping to ``now`` (no-op without faults).

        Driven from exactly two places: internally on every application
        I/O, and by the simulation kernel's checkpoint slot just before
        each policy checkpoint — so battery failures are noticed
        and emergency buffers drained at deterministic points of virtual
        time.  Calling it ad hoc elsewhere is flagged by check R8.
        """
        if self._fault_clock is None:
            return
        # Each step is called only while it has work: the battery check
        # until the battery has failed, the drain while emergency items
        # exist, the at-risk integral once the battery is gone and only
        # while the last or the current at-risk bytes are non-zero.  With
        # both zero it would add 0·dt, record no sample and move only
        # ``_at_risk_last_time``, which the next call (at a later or equal
        # time) multiplies by zero bytes: skipping it is exact.  This
        # runs before every faulted application I/O.
        if not self._battery_failed:
            self._check_battery(now)
        if self._emergency_items:
            self._drain_emergency(now)
        if self._battery_failed and (
            self._at_risk_last_bytes or self.cache.write_delay.dirty_pages
        ):
            self._note_at_risk(now)

    def _check_battery(self, now: Seconds) -> None:
        """React to a scheduled cache-battery failure.

        The instant the failure is noticed, every acknowledged write in
        the write-delay buffer is force-flushed — spinning enclosures up
        even at energy cost — and write delay stays disabled for the
        rest of the run, so no acknowledged write is ever lost.  Called
        only until the battery has failed.
        """
        failure_time = self._fault_clock.battery_failure_time
        if failure_time is None or now < failure_time:
            return
        self._battery_failed = True
        wd = self.cache.write_delay
        self._note_at_risk(min(failure_time, now))
        had_dirty = wd.dirty_pages > 0
        completion = self.flush_write_delay(now)
        if had_dirty:
            self.emergency_flushes += 1
        for item_id in list(wd.selected_items()):
            wd.deselect(item_id)
        self._emergency_items.clear()
        self._policy_selected = set()
        self._note_at_risk(max(now, completion))

    def _drain_emergency(self, now: Seconds) -> None:
        """Flush emergency-buffered items whose outage has ended.

        Called only while emergency items exist.
        """
        for item_id in sorted(self._emergency_items):
            enclosure = self.virtualization.enclosure_of(item_id)
            if self._fault_clock.outage_at(enclosure.name, now) is not None:
                continue
            self._emergency_items.discard(item_id)
            if item_id in self._policy_selected:
                # The policy also selected this item; its dirty pages
                # keep draining through the normal write-delay flushes.
                continue
            dirty = self.cache.write_delay.deselect(item_id)
            if dirty:
                self._execute_flush(now, dirty)
                self.emergency_flushes += 1

    def _note_at_risk(self, now: Seconds) -> None:
        """Integrate at-risk dirty bytes (acknowledged, battery gone)."""
        if not self._battery_failed:
            return
        bytes_now = self.cache.write_delay.dirty_pages * cache_mod.PAGE_BYTES
        if self._at_risk_last_time is None:
            self._at_risk_last_time = now
        elif now > self._at_risk_last_time:
            self.at_risk_byte_seconds += self._at_risk_last_bytes * (
                now - self._at_risk_last_time
            )
            self._at_risk_last_time = now
        self._at_risk_last_bytes = bytes_now
        self.at_risk_peak_bytes = max(self.at_risk_peak_bytes, bytes_now)
        if not self.at_risk_samples or self.at_risk_samples[-1][1] != bytes_now:
            self.at_risk_samples.append((now, bytes_now))

    def _with_fault_retry(
        self,
        now: float,
        attempt: Callable[..., _T],
        *args: object,
    ) -> tuple[_T, float]:
        """Run ``attempt(now, *args)``, retrying across injected faults.

        The first attempt runs outside any loop; only if it raised an
        injected fault does :meth:`_retry_fault` take over, with that
        error.  Returns the result plus the fault-imposed delay before
        the successful attempt (``0.0`` when the first one succeeded).
        """
        try:
            return attempt(now, *args), 0.0
        except (EnclosureUnavailableError, SpinUpFailedError) as err:
            result, at = self._retry_fault(now, err, attempt, *args)
            return result, at - now

    def _retry_fault(
        self,
        now: float,
        err: EnclosureUnavailableError | SpinUpFailedError,
        attempt: Callable[..., _T],
        *args: object,
    ) -> tuple[_T, float]:
        """Retry ``attempt`` after its first try, at ``now``, raised ``err``.

        Outage refusals are waited out (retry at the window's end);
        failed spin-ups retry under capped exponential backoff — all in
        virtual time, so the schedule is deterministic.  Both fault
        types are finite by construction (outage windows end, failure
        streaks break), so the loop terminates.  Returns the result
        plus the instant of the successful attempt, and counts the I/O
        as denied and/or delayed.
        """
        at = now
        retries = 0
        denied = False
        while True:
            if isinstance(err, EnclosureUnavailableError):
                denied = True
                at = max(at, err.until)
            else:
                self.fault_spin_up_retries += 1
                backoff = min(
                    self.retry_backoff_cap,
                    self.retry_backoff_base * (2.0**retries),
                )
                retries += 1
                at = max(at, err.at) + backoff
            try:
                result = attempt(at, *args)
            except (EnclosureUnavailableError, SpinUpFailedError) as again:
                err = again
                continue
            break
        if denied:
            self.fault_denied_ios += 1
        delay = at - now
        if delay > 0:
            self.fault_delayed_ios += 1
            self.fault_delay_seconds += delay
            self.fault_max_queue_delay = max(self.fault_max_queue_delay, delay)
        return result, at

    def _emit_physical(
        self, timestamp: float, enclosure: str, count: int
    ) -> None:
        if self._physical_tap is not None:
            self._physical_tap(timestamp, enclosure, count)

    def _bulk_transfer(
        self,
        now: float,
        enclosure: DiskEnclosure,
        size_bytes: int,
        bandwidth_bps: float,
        is_read: bool,
    ) -> IOResult:
        seconds = size_bytes / bandwidth_bps
        count = max(1, size_bytes // BULK_IO_UNIT)
        result, delay = self._with_fault_retry(
            now, enclosure.occupy, seconds, count, is_read
        )
        self._emit_physical(now + delay, enclosure.name, count)
        return result

    # ------------------------------------------------------------------
    # application I/O path
    # ------------------------------------------------------------------
    def submit(
        self,
        timestamp: float,
        item_id: str,
        offset: int,
        size: int,
        is_read: bool,
        sequential: bool,
    ) -> Seconds:
        """Serve one application I/O; returns its response time in seconds.

        Reads are served from cache when possible (preloaded items always
        hit; otherwise the LRU decides).  Writes to write-delay-selected
        items are absorbed into the cache — triggering a bulk flush when
        the dirty-block rate is reached — while all other writes go to the
        enclosure.  The battery-backed cache makes absorbed writes durable,
        so their response is the cache latency (paper §II-E.2).

        With a fault clock attached, fault bookkeeping runs first
        (:meth:`on_time`) and a write whose enclosure is out may land in
        the emergency buffer.  The physical I/O is one
        :meth:`~repro.storage.enclosure.DiskEnclosure.submit_one` call
        for ``1/rate`` seconds on every run; only an injected fault it
        raises enters the retry loop (:meth:`_retry_fault`).
        """
        self.logical_io_count += 1
        faulted = self._fault_clock is not None
        if faulted:
            self.on_time(timestamp)
        # One route lookup per I/O, via the cached route; it raises
        # MappingError for an unplaced item before any book moves.
        enclosure, name, item_size = self.virtualization.route(item_id)
        cache = self.cache
        first_page = offset // cache_mod.PAGE_BYTES
        last_page = (offset + size - 1) // cache_mod.PAGE_BYTES

        if is_read:
            if cache.read_hit(item_id, first_page, last_page):
                self.cache_hit_count += 1
                return CACHE_HIT_LATENCY
        else:
            write_delay = cache.write_delay
            if write_delay.is_selected(item_id):
                self.cache_hit_count += 1
                if write_delay.absorb_write(item_id, first_page, last_page):
                    self.flush_write_delay(timestamp)
                return CACHE_HIT_LATENCY
            # The emergency buffer can absorb a write only while the
            # battery holds, and only on an enclosure with outage windows.
            if (
                faulted
                and enclosure.outage_windows
                and not self._battery_failed
            ):
                buffered = self._emergency_buffer_write(
                    timestamp, item_id, name, first_page, last_page
                )
                if buffered is not None:
                    return buffered

        # One physical I/O, with the tap dispatch of :meth:`_emit_physical`
        # unrolled — this is the hottest call chain of the whole replay,
        # so every frame counts.
        if offset < 0 or offset >= item_size:
            raise MappingError(
                f"offset {offset} outside item {item_id!r} of size {item_size}"
            )
        # The first attempt is the whole physical I/O on every run; an
        # injected fault (never raised without a fault clock) hands the
        # I/O to the retry loop.  A try block costs nothing in 3.11
        # until it catches.  The response is summed in one of two forms,
        # which can differ in the last bit because ``(start + s) - start``
        # need not equal ``s``: with a fault clock ``(start - arrival) +
        # (completion - start)``, bit-equal to the
        # ``IOResult.mean_response_time`` of a one-I/O batch (the faulted
        # golden fixtures pin it); without one ``(start - arrival) + s``
        # (the fault-free golden fixtures pin it).
        issued = timestamp
        service = 1.0 / (
            enclosure.iops_sequential if sequential else enclosure.iops_random
        )
        try:
            start = enclosure.submit_one(timestamp, service, 1, is_read)
        except (EnclosureUnavailableError, SpinUpFailedError) as err:
            start, at = self._retry_fault(
                timestamp, err, enclosure.submit_one, service, 1, is_read
            )
            delay = at - timestamp
            issued = timestamp + delay
            response = ((start - at) + ((start + service) - start)) + delay
        else:
            if faulted:
                response = (start - timestamp) + ((start + service) - start)
            else:
                response = (start - timestamp) + service
        tap = self._physical_tap
        if tap is not None:
            tap(issued, name, 1)
        self._device_service_seconds[name] += response
        self._device_service_ios[name] += 1
        if name in self._archive_devices:
            self.archive_serviced_items.add(item_id)
        return response

    def _emergency_buffer_write(
        self,
        timestamp: float,
        item_id: str,
        enclosure: str,
        first_page: int,
        last_page: int,
    ) -> Seconds | None:
        """Absorb a write whose home enclosure is out into the cache.

        While an enclosure is inside an injected outage window, the
        battery-backed write-delay partition doubles as an emergency
        buffer: the write is acknowledged at cache latency and its dirty
        pages drain once the outage ends.  Returns ``None`` when the
        buffer cannot be used (battery gone, no outage, partition full)
        and the write must take the physical path instead.  ``enclosure``
        is the name of the item's home enclosure.  The caller has checked
        that the battery still holds and that the enclosure has outage
        windows.
        """
        if self._fault_clock.outage_at(enclosure, timestamp) is None:
            return None
        wd = self.cache.write_delay
        if wd.dirty_pages + (last_page - first_page + 1) > wd.capacity_pages:
            return None
        wd.select(item_id)
        self._emergency_items.add(item_id)
        wd.absorb_write(item_id, first_page, last_page)
        self.cache_hit_count += 1
        self.emergency_buffered_ios += 1
        return CACHE_HIT_LATENCY

    # ------------------------------------------------------------------
    # power-saving primitives (paper §V)
    # ------------------------------------------------------------------
    def preload_item(self, now: Seconds, item_id: str) -> Seconds:
        """Load a whole data item into the preload partition.

        Issues a sequential read burst on the item's enclosure (the
        physical cost of preloading, included in the paper's power
        measurements).  Returns the completion time.  No-op for items
        already pinned.
        """
        if self.cache.preload.is_pinned(item_id):
            return now
        size = self.virtualization.item_size(item_id)
        self.cache.preload.pin(item_id, size)
        enclosure = self.virtualization.enclosure_of(item_id)
        result = self._bulk_transfer(
            now, enclosure, size, self.bulk_bandwidth_bps, is_read=True
        )
        self.preloaded_bytes += size
        return result.completion

    def unpin_item(self, item_id: str) -> None:
        """Evict a data item from the preload partition (paper §V-C)."""
        self.cache.preload.unpin(item_id)

    def select_write_delay(self, now: Seconds, item_ids: set[str]) -> Seconds:
        """Reconfigure the write-delay item set; flushes deselected items.

        Returns the time at which all deselection flushes complete.
        With the cache battery failed nothing may be selected (there is
        no safe place to delay writes), so the selection empties.
        """
        self.on_time(now)
        if self._battery_failed:
            item_ids = set()
        self._policy_selected = set(item_ids)
        completion = now
        for stale in sorted(self.cache.write_delay.selected_items() - item_ids):
            if stale in self._emergency_items:
                # Still buffering for an enclosure inside an outage
                # window; _drain_emergency flushes it once the window
                # ends.
                continue
            completion = max(
                completion,
                self._execute_flush(
                    now, self.cache.write_delay.deselect(stale)
                ),
            )
        for item_id in sorted(item_ids):
            self.cache.write_delay.select(item_id)
        return completion

    def flush_write_delay(self, now: Seconds) -> Seconds:
        """Bulk-write every dirty block to its enclosure (paper §V-B).

        Under fault injection, items whose home enclosure is inside an
        outage window stay buffered (that is what the emergency buffer
        is for) — unless the battery is gone, in which case nothing may
        linger and the flush waits the outage out via the retry path.
        """
        wd = self.cache.write_delay
        if self._fault_clock is None:
            return self._execute_flush(now, wd.flush_all())
        completion = now
        flushed_any = False
        for item_id in list(wd.dirty_items()):
            enclosure = self.virtualization.enclosure_of(item_id)
            if (
                not self._battery_failed
                and self._fault_clock.outage_at(enclosure.name, now) is not None
            ):
                continue
            completion = max(
                completion, self._execute_flush(now, wd.flush_item(item_id))
            )
            flushed_any = True
        if flushed_any:
            wd.flush_count += 1
        return completion

    def flush_item(self, now: Seconds, item_id: str) -> Seconds:
        """Write one item's dirty pages out (it stays write-delayed).

        Used before migrating a write-delayed item, so its delayed
        writes land on the old home before the mapping changes.
        """
        return self._execute_flush(
            now, self.cache.write_delay.flush_item(item_id)
        )

    def _execute_flush(self, now: Seconds, dirty_bytes_by_item: dict[str, Bytes]) -> Seconds:
        completion = now
        for item_id, size in dirty_bytes_by_item.items():
            if size <= 0:
                continue
            enclosure = self.virtualization.enclosure_of(item_id)
            result = self._bulk_transfer(
                now, enclosure, size, self.bulk_bandwidth_bps, is_read=False
            )
            completion = max(completion, result.completion)
            self.flushed_bytes += size
        return completion

    def _background_copy(
        self,
        now: Seconds,
        item_id: str,
        size: Bytes,
        src: DiskEnclosure,
        dst: DiskEnclosure,
    ) -> Seconds:
        """Charge one throttled item copy from ``src`` to ``dst``.

        Shared by migrations and replications; returns the completion
        time.  Fault injection is consulted before anything is charged:
        an aborted copy is discarded, leaving placement maps, used-bytes
        and energy books exactly as they were (the policy re-plans at
        the next checkpoint).
        """
        if self._fault_clock is not None:
            if self._fault_clock.migration_abort(item_id, now):
                self.migration_aborts += 1
                raise MigrationAbortedError(item_id, now)
            for name in (src.name, dst.name):
                if self._fault_clock.outage_at(name, now) is not None:
                    self.migration_aborts += 1
                    raise MigrationAbortedError(item_id, now)
        # The copy runs in the background at the throttled average rate;
        # its actual platter time is size / bulk bandwidth.  Both
        # enclosures stay awake for the copy's duration and physical
        # records are dropped along it so the interval analysis sees the
        # activity (a migrating enclosure has no Long Interval).
        duration = size / self.migration_throughput_bps
        busy = size / self.bulk_bandwidth_bps
        count = max(1, size // BULK_IO_UNIT)
        src.background_transfer(now, duration, busy, count, read=True)
        dst.background_transfer(now, duration, busy, count, read=False)
        completion = now + duration
        marker = now
        per_marker = max(1, int(count // max(1, duration // 60.0 + 1)))
        while marker < completion:
            self._emit_physical(marker, src.name, per_marker)
            self._emit_physical(marker, dst.name, per_marker)
            marker += 60.0
        return completion

    def migrate_item(self, now: Seconds, item_id: str, target_enclosure: str) -> Seconds:
        """Move a data item to another enclosure (paper §V-A).

        The copy is throttled to ``migration_throughput_bps`` "so as to
        not influence the applications' performance"; it occupies the
        source (reads) and the target (writes) and is charged to the
        migrated-data counter the paper reports in Figs 10/13/16.
        Returns the completion time.
        """
        src_name = self.virtualization.enclosure_of(item_id).name
        if src_name == target_enclosure:
            return now
        size = self.virtualization.item_size(item_id)
        src = self.virtualization.enclosure(src_name)
        dst = self.virtualization.enclosure(target_enclosure)
        # Validate capacity before any I/O is charged: a failing move
        # must leave the energy accounting untouched.
        if dst.capacity_bytes and (
            self.virtualization.used_bytes(target_enclosure)
            + self.virtualization.replica_bytes_on(target_enclosure)
            + size
            > dst.capacity_bytes
        ):
            raise CapacityError(
                f"cannot migrate {item_id!r} to {target_enclosure!r}: "
                "insufficient space"
            )
        completion = self._background_copy(now, item_id, size, src, dst)
        self.virtualization.move_item(item_id, target_enclosure)
        # Cached copies of the moved item remain valid (logical addressing)
        # but the write-delay buffer must target the new enclosure; dirty
        # data was already flushed by the caller before migration.
        self.migrated_bytes += size
        self.migration_count += 1
        return completion

    # ------------------------------------------------------------------
    # tier lifecycle primitives (repro.storage.tiers)
    # ------------------------------------------------------------------
    def promote_item(
        self, now: Seconds, item_id: str, target_enclosure: str
    ) -> Seconds:
        """Move an item's primary copy up to a faster tier's device.

        Physically identical to :meth:`migrate_item` (same throttled
        copy, same fault-abort draws); counted separately so per-tier
        books can distinguish promotions from demotions.  If the item
        was serviced from an archive device, the promotion clears its
        archive-service mark — the auditor has seen the promote record.
        Returns the completion time.
        """
        completion = self.migrate_item(now, item_id, target_enclosure)
        self.promotion_count += 1
        self.archive_serviced_items.discard(item_id)
        return completion

    def demote_item(
        self, now: Seconds, item_id: str, target_enclosure: str
    ) -> Seconds:
        """Move an item's primary copy down to a slower tier's device."""
        completion = self.migrate_item(now, item_id, target_enclosure)
        self.demotion_count += 1
        return completion

    def archive_item(
        self, now: Seconds, item_id: str, target_enclosure: str
    ) -> Seconds:
        """Move an item's primary copy onto an archive-tier device."""
        completion = self.migrate_item(now, item_id, target_enclosure)
        self.archive_move_count += 1
        return completion

    def replicate_item(
        self, now: Seconds, item_id: str, target_enclosure: str
    ) -> Seconds:
        """Copy an item to another tier's device as a replica (§V-A cost).

        The copy is charged exactly like a migration (throttled
        background transfer on source and target, migration-abort and
        outage draws apply), but the primary mapping is untouched: the
        replica occupies capacity on the target and enters the tier
        ledger.  Returns the completion time.
        """
        src_name = self.virtualization.enclosure_of(item_id).name
        if target_enclosure == src_name:
            raise MappingError(
                f"item {item_id!r} already has its primary copy on "
                f"{target_enclosure!r}"
            )
        if target_enclosure in self.virtualization.replicas_of(item_id):
            raise MappingError(
                f"item {item_id!r} already has a replica on "
                f"{target_enclosure!r}"
            )
        size = self.virtualization.item_size(item_id)
        src = self.virtualization.enclosure(src_name)
        dst = self.virtualization.enclosure(target_enclosure)
        occupied = self.virtualization.used_bytes(
            target_enclosure
        ) + self.virtualization.replica_bytes_on(target_enclosure)
        if dst.capacity_bytes and occupied + size > dst.capacity_bytes:
            raise CapacityError(
                f"cannot replicate {item_id!r} to {target_enclosure!r}: "
                "insufficient space"
            )
        completion = self._background_copy(now, item_id, size, src, dst)
        self.virtualization.add_replica(item_id, target_enclosure)
        self.replication_count += 1
        return completion

    def charge_block_migration(
        self,
        now: float,
        item_id: str,
        size_bytes: int,
        source_enclosure: str,
        target_enclosure: str,
    ) -> float:
        """Charge a block-grained copy between enclosures (DDR's move).

        Unlike :meth:`migrate_item` this does not remap anything — the
        caller is a physical-block-level policy whose remapping sits
        below our item-grained virtualization — but the I/O, the energy,
        and the migrated-byte accounting are identical.  Returns the
        completion time.
        """
        if size_bytes <= 0:
            raise ValidationError("size_bytes must be positive")
        src = self.virtualization.enclosure(source_enclosure)
        dst = self.virtualization.enclosure(target_enclosure)
        seconds = size_bytes / self.bulk_bandwidth_bps
        read, _ = self._with_fault_retry(now, src.occupy, seconds, 1, True)
        write, _ = self._with_fault_retry(now, dst.occupy, seconds, 1, False)
        self._emit_physical(now, source_enclosure, 1)
        self._emit_physical(now, target_enclosure, 1)
        self.migrated_bytes += size_bytes
        self.migration_count += 1
        return max(read.completion, write.completion)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self, now: Seconds) -> Seconds:
        """Flush outstanding dirty data and settle all enclosures."""
        self.on_time(now)
        completion = self.flush_write_delay(now)
        if self._fault_clock is not None:
            # Dirty data deferred past the end of the run (an outage
            # spanning the finish) must still land before the books
            # close; the bulk-transfer retry waits the outage out.
            wd = self.cache.write_delay
            for item_id in list(wd.dirty_items()):
                completion = max(
                    completion, self._execute_flush(now, wd.flush_item(item_id))
                )
                self.emergency_flushes += 1
            self._emergency_items.clear()
            self._note_at_risk(max(now, completion))
        for enclosure in self.virtualization.enclosures():
            enclosure.finish(max(now, completion))
        return completion

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of logical I/Os absorbed by the cache."""
        if self.logical_io_count == 0:
            return 0.0
        return self.cache_hit_count / self.logical_io_count
