"""Stand-in planner contract and storage surface for the purity fixture."""


class ActionPlan:
    """A batch of planned actions (payload irrelevant to the analysis)."""

    def add(self, action: object) -> None:
        """Append one action."""


class ActionExecutor:
    """The one sanctioned gateway from plans to storage mutation."""

    def apply(self, now: float, plan: ActionPlan) -> None:
        """Apply a plan (opaque to the purity walk)."""


class StorageController:
    """Storage surface exposing a mutator method."""

    def flush_write_delay(self, now: float) -> float:
        """Mutator: bulk-flush the write-delay partition."""
        return now

    def promote_item(self, now: float, item: str, tier: str) -> float:
        """Tier mutator: move an item to a faster tier."""
        return now


class PowerPolicy:
    """Planner base class (matched by bare name, like the real one)."""

    def on_checkpoint(self, now: float) -> None:
        """Entry point invoked at each monitoring checkpoint."""
