"""Typed fault events and the :class:`FaultPlan` container.

A :class:`FaultPlan` is to fault injection what
:class:`~repro.experiments.parallel.WorkloadSpec` is to workloads: a
small, frozen, picklable value object that fully determines behaviour
and can be fingerprinted for the experiment cache.  It carries an
explicit tuple of scheduled events plus an optional seeded
:class:`~repro.faults.model.FaultModel` for probabilistic faults.

All times are virtual-time seconds from the start of the replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Mapping, Union

from repro.errors import ValidationError
from repro.faults.model import FaultModel
from repro.units import Seconds

#: Version tag embedded in serialized plans (bump on schema change).
PLAN_FORMAT = 1


@dataclass(frozen=True)
class SpinUpFailure:
    """The next spin-up cycle of ``enclosure`` at or after ``after`` fails.

    The failure is transient: the enclosure fails ``failures``
    consecutive attempts (each one burning the full spin-up time and
    energy, ending back in OFF) and then succeeds, so controller retry
    loops always terminate.
    """

    kind: ClassVar[str] = "spin_up_failure"

    enclosure: str
    after: Seconds = 0.0
    failures: int = 1

    def __post_init__(self) -> None:
        if self.after < 0:
            raise ValidationError(
                f"SpinUpFailure.after must be >= 0, got {self.after!r}"
            )
        if not 1 <= self.failures <= 64:
            raise ValidationError(
                "SpinUpFailure.failures must be in [1, 64] so retry loops "
                f"terminate, got {self.failures!r}"
            )


@dataclass(frozen=True)
class EnclosureOutage:
    """``enclosure`` refuses to start new I/O during ``[start, end)``.

    The power state machine is untouched (the drives may even still be
    spinning); the *path* to the enclosure is down.  The controller
    waits the window out for reads it cannot serve from cache and
    buffers writes in the battery-backed write-delay partition.
    """

    kind: ClassVar[str] = "enclosure_outage"

    enclosure: str
    start: Seconds
    end: Seconds

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValidationError(
                "EnclosureOutage requires 0 <= start < end, got "
                f"start={self.start!r}, end={self.end!r}"
            )


@dataclass(frozen=True)
class CacheBatteryFailure:
    """The controller cache's battery backing fails at ``time``.

    From that moment on, dirty pages held under write delay are at risk:
    the controller immediately force-flushes every acknowledged write
    (spinning enclosures up even at energy cost) and stops absorbing new
    writes into the write-delay partition for the rest of the run.
    """

    kind: ClassVar[str] = "cache_battery_failure"

    time: Seconds

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValidationError(
                f"CacheBatteryFailure.time must be >= 0, got {self.time!r}"
            )


@dataclass(frozen=True)
class SlowSpinUp:
    """Spin-ups of ``enclosure`` started during ``[start, end)`` are slow.

    The nominal spin-up latency is multiplied by ``multiplier`` (energy
    is charged for the stretched duration too — a struggling motor draws
    spin-up power for longer).
    """

    kind: ClassVar[str] = "slow_spin_up"

    enclosure: str
    start: Seconds
    end: Seconds
    multiplier: float = 3.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValidationError(
                "SlowSpinUp requires 0 <= start < end, got "
                f"start={self.start!r}, end={self.end!r}"
            )
        if self.multiplier < 1.0:
            raise ValidationError(
                f"SlowSpinUp.multiplier must be >= 1.0, got {self.multiplier!r}"
            )


@dataclass(frozen=True)
class MigrationAbort:
    """The next migration of ``item_id`` at or after ``after`` aborts.

    The abort happens mid-transfer; the copy's partial writes are
    discarded and the books are rolled back, so placement maps,
    per-enclosure used-bytes and energy accounts all read exactly as if
    the move had never been attempted.  One-shot: a later retry of the
    same move succeeds.
    """

    kind: ClassVar[str] = "migration_abort"

    item_id: str
    after: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.after < 0:
            raise ValidationError(
                f"MigrationAbort.after must be >= 0, got {self.after!r}"
            )


FaultEvent = Union[
    SpinUpFailure,
    EnclosureOutage,
    CacheBatteryFailure,
    SlowSpinUp,
    MigrationAbort,
]

#: Registry of event kinds for (de)serialization.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        SpinUpFailure,
        EnclosureOutage,
        CacheBatteryFailure,
        SlowSpinUp,
        MigrationAbort,
    )
}

@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events plus an optional model.

    An empty plan (``FaultPlan()``) is falsy and injects nothing; the
    simulation builder skips fault wiring entirely for falsy plans so a
    zero-fault run is *literally* the pre-fault code path.
    """

    events: tuple[FaultEvent, ...] = ()
    model: FaultModel | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if type(event) not in EVENT_TYPES.values():
                raise ValidationError(
                    f"unknown fault event type {type(event).__name__!r}; "
                    f"expected one of {sorted(EVENT_TYPES)}"
                )
        if self.model is not None and not isinstance(self.model, FaultModel):
            raise ValidationError(
                f"FaultPlan.model must be a FaultModel, got "
                f"{type(self.model).__name__!r}"
            )

    def __bool__(self) -> bool:
        return bool(self.events) or (
            self.model is not None and self.model.active
        )

    @property
    def label(self) -> str:
        """Short human tag for progress lines and cell labels."""
        parts = []
        if self.events:
            parts.append(f"{len(self.events)}ev")
        if self.model is not None and self.model.active:
            parts.append(f"model:{self.model.seed}")
        return "+".join(parts) if parts else "none"

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (stable key order under canonical JSON)."""
        return {
            "format": PLAN_FORMAT,
            "events": [
                {"kind": event.kind, **asdict(event)} for event in self.events
            ],
            "model": None if self.model is None else self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if data.get("format") != PLAN_FORMAT:
            raise ValidationError(
                f"unsupported fault-plan format {data.get('format')!r} "
                f"(expected {PLAN_FORMAT})"
            )
        events = []
        for raw in data.get("events", []):
            raw = dict(raw)
            kind = raw.pop("kind", None)
            event_cls = EVENT_TYPES.get(kind)
            if event_cls is None:
                raise ValidationError(f"unknown fault event kind {kind!r}")
            events.append(event_cls(**raw))
        model_data = data.get("model")
        model = None if model_data is None else FaultModel.from_dict(model_data)
        return cls(events=tuple(events), model=model)

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Content hash for experiment cache keys."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


#: The canonical empty plan (falsy: injects nothing).
EMPTY_PLAN = FaultPlan()
