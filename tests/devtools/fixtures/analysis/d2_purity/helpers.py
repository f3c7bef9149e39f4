"""Helper chain standing between the policies and the storage layer."""

from d2_purity.base import ActionExecutor, ActionPlan, StorageController

_EXECUTOR = ActionExecutor()
_CONTROLLER = StorageController()


def submit_plan(now: float, plan: ActionPlan) -> None:
    """Legal path: the plan goes through the executor gateway."""
    _EXECUTOR.apply(now, plan)


def drain_everything(now: float) -> None:
    """Illegal path: calls a storage mutator directly."""
    _CONTROLLER.flush_write_delay(now)


def warm_up(now: float) -> None:
    """Illegal path: moves an item between tiers directly."""
    _CONTROLLER.promote_item(now, "item", "flash")
