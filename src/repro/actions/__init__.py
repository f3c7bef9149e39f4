"""Typed action/command layer between power policies and storage.

The paper's management mechanisms — data placement (§IV-D), write delay
(§IV-E), preload (§IV-F), power-off enablement (§IV-G) — become typed,
frozen :class:`~repro.actions.records.Action` values here.  Policies
*plan* (:class:`~repro.actions.plan.ActionPlan`); the
:class:`~repro.actions.executor.ActionExecutor` *applies*, emitting an
auditable, replayable, JSON-round-trippable
:class:`~repro.actions.records.ActionRecord` per action.  See
``docs/actions.md`` for the taxonomy and outcome semantics.
"""

from repro.actions.executor import ActionExecutor, ApplyReport
from repro.actions.plan import ActionPlan
from repro.actions.records import (
    Action,
    ActionOutcome,
    ActionRecord,
    ChargeBlockMigration,
    EnableWriteDelay,
    FlushItem,
    FlushWriteDelay,
    MigrateItem,
    PreloadItem,
    SetPowerOffEnabled,
    UnpinItem,
    action_from_dict,
)

__all__ = [
    "Action",
    "ActionExecutor",
    "ActionOutcome",
    "ActionPlan",
    "ActionRecord",
    "ApplyReport",
    "ChargeBlockMigration",
    "EnableWriteDelay",
    "FlushItem",
    "FlushWriteDelay",
    "MigrateItem",
    "PreloadItem",
    "SetPowerOffEnabled",
    "UnpinItem",
    "action_from_dict",
]
