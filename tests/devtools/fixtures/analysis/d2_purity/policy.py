"""Policies: one pure (via the executor), two leaking a direct mutation."""

from d2_purity.base import ActionPlan, PowerPolicy
from d2_purity.helpers import drain_everything, submit_plan, warm_up


class PurePolicy(PowerPolicy):
    """Plans only: applies its plan through the executor gateway."""

    def on_checkpoint(self, now: float) -> None:
        submit_plan(now, ActionPlan())


class LeakyPolicy(PowerPolicy):
    """Reaches a storage mutator two helper hops below the entry point."""

    def on_checkpoint(self, now: float) -> None:
        self._tidy(now)

    def _tidy(self, now: float) -> None:
        drain_everything(now)


class PromotingPolicy(PowerPolicy):
    """Reaches a tier mutator through one helper hop."""

    def on_checkpoint(self, now: float) -> None:
        warm_up(now)
