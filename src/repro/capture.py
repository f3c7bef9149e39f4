"""Generic snapshot capture: a component's state is its attributes.

Every stateful component the kernel drives (controller, enclosures,
cache, monitors, policies, fault clock, executor, auditor, timeline,
the kernel itself) derives from :class:`Snapshottable`, which captures
and restores the instance's attributes wholesale.  A class names, in
``_REBUILT``, the attributes construction wires in or derives —
references to other components, taps, hooks, the fault clock, models
and derived caches; those are rebuilt by the normal
:func:`~repro.simulation.build_context` / ``bind`` path on resume and
never travel in a snapshot.  Every other attribute is state, so a
field can no longer be left out of a capture.

Owned sub-objects (the cache partitions, the tier ledger, the kernel's
clock, the manager's trigger throttle) are copied as values of their
owner.  Copies are made by a pickle round trip, which is several times
faster than :func:`copy.deepcopy` on these attribute graphs.

Reading ``vars(self)`` has a cost on CPython 3.11: it moves the
instance's attributes from the interpreter's inline layout into a real
dict for good, and every later attribute access on that object takes
a slower path.  A replay that writes snapshots, or resumes from
one, therefore runs slower after its first capture or restore; a
replay that takes none is unaffected.

This module is a leaf (besides the standard library it imports only
:mod:`repro.errors`) so the storage and engine layers can use it
without importing :mod:`repro.persistence`, whose session imports them.
"""

from __future__ import annotations

import pickle
from typing import Any, ClassVar, TypeVar

from repro.errors import SnapshotError

__all__ = ["Snapshottable"]

_T = TypeVar("_T")


def _copy(value: _T) -> _T:
    """A deep copy of ``value``, made by a pickle round trip."""
    copied: _T = pickle.loads(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return copied


class Snapshottable:
    """Captures and restores every attribute construction does not rebuild."""

    #: Attributes construction wires in or derives: never captured,
    #: never restored.
    _REBUILT: ClassVar[frozenset[str]] = frozenset()

    def snapshot_state(self) -> dict[str, Any]:
        """A copy of this component's attributes, minus :attr:`_REBUILT`.

        Strictly read-only: no settlement, no meter reads, so taking a
        snapshot cannot perturb the run.
        """
        rebuilt = self._REBUILT
        return _copy(
            {
                name: value
                for name, value in vars(self).items()
                if name not in rebuilt
            }
        )

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite this freshly built component's state with ``state``.

        Raises :class:`~repro.errors.SnapshotError`, naming the missing
        and the extra attributes, unless ``state`` holds exactly the
        attributes :meth:`snapshot_state` captures.
        """
        name = type(self).__name__
        if not isinstance(state, dict):
            raise SnapshotError(f"{name} state is not a mapping")
        expected = set(vars(self)) - self._REBUILT
        if set(state) != expected:
            raise SnapshotError(
                f"{name} state does not match its attributes: missing "
                f"{sorted(expected - set(state))}, extra "
                f"{sorted(set(state) - expected)}"
            )
        vars(self).update(_copy(state))
