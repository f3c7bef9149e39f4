"""Slot-based capture: every component is slotted, logs are shared.

:class:`repro.capture.Snapshottable` walks ``__slots__`` along the MRO
instead of reading an instance ``__dict__``, so these checks hold the
layout in place:

* every :class:`Snapshottable` and :class:`SlotValue` class under
  ``repro`` declares ``__slots__``, and ``repro/capture.py`` never calls
  ``vars()``;
* after a real replay with audit, a timeline, one capture and one
  restore, no session component (nor an owned cache partition) has an
  instance ``__dict__`` — reading one would de-optimise every later
  attribute access on CPython 3.11;
* the executor's action log is captured as a tuple of the live log's
  own records, which later appends do not reach, and restored as an
  independent list;
* an instance that still has a ``__dict__`` is refused, never captured
  in part.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.actions.plan import ActionPlan
from repro.actions.records import SetPowerOffEnabled
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.capture import SlotValue, Snapshottable, slot_names
from repro.errors import SnapshotError
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.persistence.session import RunSpec, SnapshotSession
from repro.storage.cache import LRUBlockCache, StorageCache


def _all_subclasses(base: type) -> set[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found: set[type] = set()
    pending = [base]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found.add(cls)
                pending.append(cls)
    return found


SNAPSHOTTABLE = sorted(_all_subclasses(Snapshottable), key=lambda c: c.__qualname__)
SLOT_VALUES = sorted(_all_subclasses(SlotValue), key=lambda c: c.__qualname__)


def test_the_component_classes_are_all_found():
    names = {cls.__qualname__ for cls in SNAPSHOTTABLE}
    assert {
        "DiskEnclosure",
        "FlashTier",
        "ArchiveTier",
        "StorageController",
        "StorageCache",
        "BlockVirtualization",
        "ApplicationMonitor",
        "StorageMonitor",
        "PowerTimeline",
        "SimulationKernel",
        "ActionExecutor",
        "FaultClock",
        "InvariantAuditor",
        "PowerPolicy",
        "ZonedPolicy",
    } <= names
    assert {cls.__qualname__ for cls in SLOT_VALUES} == {
        "LRUBlockCache",
        "PreloadPartition",
        "WriteDelayPartition",
        "PatternChangeTriggers",
    }


@pytest.mark.parametrize(
    "cls", [*SNAPSHOTTABLE, *SLOT_VALUES], ids=lambda cls: cls.__qualname__
)
def test_every_captured_class_declares_slots(cls):
    assert "__slots__" in cls.__dict__
    assert "__dict__" not in slot_names(cls)


@pytest.mark.parametrize("cls", SNAPSHOTTABLE, ids=lambda cls: cls.__qualname__)
def test_rebuilt_and_log_names_are_slots(cls):
    names = set(slot_names(cls))
    assert cls._REBUILT <= names
    assert cls._LOGS <= names
    assert not cls._REBUILT & cls._LOGS


def test_capture_module_reads_no_instance_dict():
    source = Path(repro.__file__).with_name("capture.py").read_text()
    assert "vars(" not in source


def _storm_spec() -> RunSpec:
    workload = build_workload("tpcc", False)
    names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
    plan = build_fault_plan(
        "storm", 0, workload.duration, names, workload.item_ids()
    )
    return RunSpec(
        workload="tpcc",
        policy="ddr",
        audit=True,
        timeline_interval=300.0,
        faults_json=plan.to_json(),
    )


def _owned_values(session: SnapshotSession) -> list[object]:
    cache = session.context.cache
    return [cache.lru, cache.preload, cache.write_delay, session.kernel.clock]


def test_no_component_has_an_instance_dict_after_capture_and_restore():
    spec = _storm_spec()
    session = SnapshotSession(spec)
    captured = {}

    def hook(count: int, ts: float) -> None:
        if count == 5000:
            captured["payload"] = session.capture(count, ts)

    session.run(record_hook=hook)
    resumed = SnapshotSession(spec)
    resumed.resume(captured["payload"])
    for run in (session, resumed):
        components = run._components()
        assert {"auditor", "timeline", "fault_clock"} <= set(components)
        for name, component in components.items():
            assert not hasattr(component, "__dict__"), name
        for value in _owned_values(run):
            assert not hasattr(value, "__dict__"), type(value).__name__


class TestSharedActionLog:
    def _session(self) -> SnapshotSession:
        session = SnapshotSession(RunSpec(workload="tpcc", policy="ddr"))
        session.policy.on_start(0.0)
        return session

    def _apply(self, session: SnapshotSession, now: float) -> None:
        name = session.context.enclosure_names()[0]
        session.context.executor.apply(
            now, ActionPlan([SetPowerOffEnabled(name, now % 2 == 0)])
        )

    def test_capture_shares_the_live_records(self):
        session = self._session()
        executor = session.context.executor
        log = executor.snapshot_state()["log"]
        assert isinstance(log, tuple)
        assert len(log) == len(executor.log) > 0
        assert all(a is b for a, b in zip(log, executor.log))

    def test_an_append_after_capture_leaves_the_capture_unchanged(self):
        session = self._session()
        executor = session.context.executor
        state = executor.snapshot_state()
        before = state["log"]
        length = len(before)
        self._apply(session, 10.0)
        assert len(executor.log) == length + 1
        assert state["log"] is before
        assert len(state["log"]) == length

    def test_a_restored_log_is_an_independent_list(self):
        session = self._session()
        state = session.context.executor.snapshot_state()
        fresh = SnapshotSession(RunSpec(workload="tpcc", policy="ddr"))
        executor = fresh.context.executor
        executor.restore_state(state)
        assert type(executor.log) is list
        assert executor.log == list(state["log"])
        assert executor.log is not session.context.executor.log
        self._apply(fresh, 10.0)
        assert len(executor.log) == len(state["log"]) + 1
        assert len(session.context.executor.log) == len(state["log"])

    def test_a_log_that_is_not_a_sequence_is_refused_untouched(self):
        session = self._session()
        executor = session.context.executor
        before = executor.snapshot_state()
        state = {**before, "log": 7, "actions_applied": -1}
        with pytest.raises(SnapshotError, match="ActionExecutor state 'log'"):
            executor.restore_state(state)
        assert executor.snapshot_state() == before


class _Unslotted(NoPowerSavingPolicy):
    """A subclass without ``__slots__``: its instances get a ``__dict__``."""


class TestInstanceDictRefused:
    def test_capture_is_refused_naming_the_class(self):
        policy = _Unslotted()
        with pytest.raises(SnapshotError, match="_Unslotted cannot be captured"):
            policy.snapshot_state()

    def test_attributes_in_the_dict_are_never_dropped(self):
        policy = _Unslotted()
        policy.extra = 1  # type: ignore[attr-defined]
        with pytest.raises(SnapshotError, match="_Unslotted"):
            policy.snapshot_state()

    def test_restore_is_refused_too(self):
        state = NoPowerSavingPolicy().snapshot_state()
        with pytest.raises(SnapshotError, match="_Unslotted"):
            _Unslotted().restore_state(state)

    def test_a_slotted_subclass_is_captured(self):
        class Slotted(NoPowerSavingPolicy):
            __slots__ = ()

        assert Slotted().snapshot_state() == {"determinations": 0}


def test_owned_values_pickle_as_attribute_dicts():
    # The same state an instance __dict__ pickled as, so a snapshot's
    # bytes for a cache partition do not depend on its layout.
    cache = StorageCache()
    cache.read_hit("item", 0, 2)
    _, _, state, *_ = cache.lru.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert state == {
        "capacity_pages": cache.lru.capacity_pages,
        "_blocks": cache.lru._blocks,
    }
    copy = pickle.loads(pickle.dumps(cache.lru))
    assert copy == cache.lru
    assert list(copy._blocks) == list(cache.lru._blocks)


def test_owned_values_compare_by_slot():
    one, two = LRUBlockCache(1 << 20), LRUBlockCache(1 << 20)
    assert one == two
    one._blocks[("a", 0)] = None
    one._blocks[("a", 1)] = None
    two._blocks[("a", 1)] = None
    two._blocks[("a", 0)] = None
    assert one != two  # same pages, other recency order
    assert LRUBlockCache(0) != LRUBlockCache(1 << 20)
