"""Generic snapshot capture: a component's state is its slots.

Every stateful component the kernel drives (controller, enclosures,
cache, monitors, policies, fault clock, executor, auditor, timeline,
the kernel itself) derives from :class:`Snapshottable` and declares
``__slots__``: its attributes, in the order construction assigns them.
Capture walks the slot names along the MRO, base class first, so the
captured keys come out in that same order.  A class names, in
``_REBUILT``, the slots construction wires in or derives — references
to other components, taps, hooks, the fault clock, models and derived
caches; those are rebuilt by the normal
:func:`~repro.simulation.build_context` / ``bind`` path on resume and
never travel in a snapshot.  Every other slot is state, so a field can
no longer be left out of a capture.  An instance whose class (or a
base of it) declares no ``__slots__`` keeps attributes in a
``__dict__`` the capture would not read, so it is refused rather than
captured in part.

Owned sub-objects (the cache partitions, the tier ledger, the kernel's
clock, the manager's trigger throttle) are copied as values of their
owner.  Copies are made by a pickle round trip, which is several times
faster than :func:`copy.deepcopy` on these attribute graphs.  The
owned value classes with slots derive from :class:`SlotValue`, which
pickles them as the same ``{attribute: value}`` dict an instance
``__dict__`` did and compares them slot by slot.

A class names, in ``_LOGS``, its append-only logs of immutable values
(the executor's action records, the served responses, spin-up times).
A log is captured as a tuple that shares the live list's elements
instead of copying them, and restored as a new list, so capture cost
does not grow with the log's length and later appends reach neither
the capture nor a restored component.

Slot access keeps every component on CPython's specialised attribute
path: no attribute dict is ever materialised, before or after a
capture, so a replay that writes snapshots runs at the speed of one
that does not.

This module is a leaf (besides the standard library it imports only
:mod:`repro.errors`) so the storage and engine layers can use it
without importing :mod:`repro.persistence`, whose session imports them.
"""

from __future__ import annotations

import functools
import pickle
from typing import Any, ClassVar, TypeVar

from repro.errors import SnapshotError

__all__ = ["SlotValue", "Snapshottable", "slot_names"]

_T = TypeVar("_T")

#: ``getattr`` default marking a slot that holds no value.
_UNSET: Any = object()


def _copy(value: _T) -> _T:
    """A deep copy of ``value``, made by a pickle round trip."""
    copied: _T = pickle.loads(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return copied


@functools.cache
def slot_names(cls: type) -> tuple[str, ...]:
    """Every slot of ``cls``, base classes first, each in declared order.

    Raises :class:`~repro.errors.SnapshotError` naming ``cls`` when a
    class on its MRO declares no ``__slots__`` (or a ``__dict__`` slot):
    its instances keep attributes in a ``__dict__`` no slot walk reads.
    """
    names: list[str] = []
    for klass in reversed(cls.__mro__[:-1]):
        slots = klass.__dict__.get("__slots__")
        if slots is None or "__dict__" in slots:
            raise SnapshotError(
                f"{cls.__name__} cannot be captured: {klass.__qualname__} "
                "declares no __slots__, so its instances keep attributes "
                "in a __dict__"
            )
        names.extend((slots,) if isinstance(slots, str) else slots)
    return tuple(name for name in names if name != "__weakref__")


class SlotValue:
    """An owned value object on ``__slots__``: pickled and compared by slot."""

    __slots__ = ()

    def __getstate__(self) -> dict[str, Any]:
        return {
            name: value
            for name in slot_names(type(self))
            if (value := getattr(self, name, _UNSET)) is not _UNSET
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        """Same class and equal slots."""
        return type(other) is type(self) and all(
            getattr(other, name, _UNSET) == getattr(self, name, _UNSET)
            for name in slot_names(type(self))
        )


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, ...], frozenset[str]]:
    """``cls``'s captured slot names in order, and the logs among them."""
    rebuilt: frozenset[str] = getattr(cls, "_REBUILT")
    logs: frozenset[str] = getattr(cls, "_LOGS")
    names = tuple(name for name in slot_names(cls) if name not in rebuilt)
    return names, logs


class Snapshottable:
    """Captures and restores every slot construction does not rebuild."""

    __slots__ = ()

    #: Slots construction wires in or derives: never captured, never
    #: restored.
    _REBUILT: ClassVar[frozenset[str]] = frozenset()

    #: Slots holding append-only lists of immutable values: captured as
    #: a tuple sharing the elements, restored as a new list.
    _LOGS: ClassVar[frozenset[str]] = frozenset()

    def _assigned(self) -> dict[str, Any]:
        """Every captured slot that holds a value, in slot order."""
        names, _ = _layout(type(self))
        return {
            name: value
            for name in names
            if (value := getattr(self, name, _UNSET)) is not _UNSET
        }

    def snapshot_state(self) -> dict[str, Any]:
        """A copy of this component's slots, minus :attr:`_REBUILT`.

        Strictly read-only: no settlement, no meter reads, so taking a
        snapshot cannot perturb the run.  Each :attr:`_LOGS` slot is a
        tuple of the live log's own (immutable) elements.
        """
        _, logs = _layout(type(self))
        state = self._assigned()
        copied = _copy(
            {name: value for name, value in state.items() if name not in logs}
        )
        return {
            name: tuple(value) if name in logs else copied[name]
            for name, value in state.items()
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite this freshly built component's state with ``state``.

        Raises :class:`~repro.errors.SnapshotError`, naming the missing
        and the extra attributes, unless ``state`` holds exactly the
        attributes :meth:`snapshot_state` captures.  Every value is
        checked and copied before the first slot is assigned, so a
        refused state leaves the component as it was.
        """
        name = type(self).__name__
        if not isinstance(state, dict):
            raise SnapshotError(f"{name} state is not a mapping")
        _, logs = _layout(type(self))
        expected = set(self._assigned())
        if set(state) != expected:
            raise SnapshotError(
                f"{name} state does not match its attributes: missing "
                f"{sorted(expected - set(state))}, extra "
                f"{sorted(set(state) - expected)}"
            )
        for log in sorted(logs & expected):
            if not isinstance(state[log], (tuple, list)):
                raise SnapshotError(
                    f"{name} state {log!r} is not a sequence: "
                    f"{type(state[log]).__name__}"
                )
        copied = _copy(
            {key: value for key, value in state.items() if key not in logs}
        )
        for key, value in state.items():
            setattr(self, key, list(value) if key in logs else copied[key])
