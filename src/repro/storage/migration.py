"""Placement plans: the data-item moves a placement algorithm decides.

Paper §V-A: after the power-management function decides placement, the
runtime method migrates data items between enclosures, P0/P1/P2 items
first (to free space for P3), one by one and throttled.  A
:class:`PlacementPlan` (list of moves) becomes
:class:`~repro.actions.records.MigrateItem` actions through
:meth:`PlacementPlan.as_actions`; policies apply those through the
:class:`~repro.actions.executor.ActionExecutor`, the sole mutation path
into the controller, which serializes the moves and reports them in its
:class:`~repro.actions.executor.ApplyReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.actions.plan import ActionPlan
from repro.actions.records import MigrateItem


@dataclass(frozen=True)
class Move:
    """One planned data-item move."""

    item_id: str
    target_enclosure: str
    #: True when the move evacuates a P0/P1/P2 item from a hot enclosure
    #: (paper Algorithm 3); these execute before P3 consolidation moves
    #: (paper Algorithm 2) because they create the space the latter need.
    evacuation: bool = False


@dataclass
class PlacementPlan:
    """An ordered set of moves produced by the placement algorithms."""

    moves: list[Move] = field(default_factory=list)

    def add(self, item_id: str, target_enclosure: str, evacuation: bool = False) -> None:
        """Append one item move to the plan."""
        self.moves.append(Move(item_id, target_enclosure, evacuation))

    def ordered(self) -> list[Move]:
        """Execution order: evacuations first, then consolidation moves,
        preserving the algorithms' own within-class ordering."""
        return [m for m in self.moves if m.evacuation] + [
            m for m in self.moves if not m.evacuation
        ]

    def as_actions(self) -> ActionPlan:
        """This plan as an executor-ready sequence of migrate actions."""
        return ActionPlan(
            [
                MigrateItem(m.item_id, m.target_enclosure, m.evacuation)
                for m in self.ordered()
            ]
        )

    def __len__(self) -> int:
        return len(self.moves)

    def __bool__(self) -> bool:
        return bool(self.moves)
