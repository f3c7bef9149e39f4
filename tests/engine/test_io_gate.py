"""The kernel's after-I/O gate skips only calls that would change nothing.

:meth:`PowerPolicy.io_gate` is the earliest record timestamp at which a
policy's ``after_io`` can change any state, and the record pump calls
``after_io`` (and re-reads the checkpoint after it) only for records at
or past it.  Two checks hold the gate sound:

* a subclass whose ``io_gate`` answers ``-inf`` — ``after_io`` on every
  record, as before the gate existed — replays every policy to the same
  canonical result, the same action log and the same final policy state
  as the gated run, on the smoke file-server and TPC-C traces, each
  also with the ``storm`` fault plan (the file server under ``storm`` is
  the smoke cell where the proposed method's §V-D triggers fire);
* called directly at a record boundary whose timestamp lies below the
  gate, ``after_io`` leaves the policy's snapshot state and the action
  log unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable

import pytest

from repro.baselines.base import PowerPolicy
from repro.baselines.cacheonly import CacheOnlyPolicy
from repro.baselines.ddr import DDRPolicy
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.baselines.pdc import PDCPolicy
from repro.baselines.tiered import TieredLifecyclePolicy
from repro.baselines.zoned import Zone, ZonedPolicy
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.engine.kernel import SimulationKernel
from repro.experiments.runner import run_on_context
from repro.experiments.serialize import result_to_dict
from repro.experiments.testbed import build_workload
from repro.faults.chaos import build_fault_plan
from repro.simulation import SimulationContext, build_context


def _zoned(names: list[str]) -> PowerPolicy:
    half = len(names) // 2
    return ZonedPolicy(
        [
            Zone("db", tuple(names[:half]), DDRPolicy()),
            Zone("archive", tuple(names[half:]), EnergyEfficientPolicy()),
        ]
    )


#: Each policy as a factory of the testbed's enclosure names.
POLICIES: dict[str, Callable[[list[str]], PowerPolicy]] = {
    "no-power-saving": lambda names: NoPowerSavingPolicy(),
    "pdc": lambda names: PDCPolicy(),
    "ddr": lambda names: DDRPolicy(),
    "proposed": lambda names: EnergyEfficientPolicy(),
    "cache-only": lambda names: CacheOnlyPolicy(),
    "zoned": _zoned,
    "tiered-lifecycle": lambda names: TieredLifecyclePolicy(),
}

#: ``(workload, fault plan name or None)`` of each smoke cell.
CELLS = [
    ("fileserver", None),
    ("fileserver", "storm"),
    ("tpcc", None),
    ("tpcc", "storm"),
]
CELL_IDS = ["fileserver", "fileserver-storm", "tpcc", "tpcc-storm"]


def _context(workload, policy_name: str, faults: str | None) -> SimulationContext:
    names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
    plan = None
    if faults is not None:
        plan = build_fault_plan(
            faults, 0, workload.duration, names, workload.item_ids()
        )
    tiers = 1 if policy_name == "tiered-lifecycle" else 0
    return build_context(
        DEFAULT_CONFIG,
        workload.enclosure_count,
        flash_count=tiers,
        archive_count=tiers,
        faults=plan,
    )


def _ungated(policy: PowerPolicy) -> PowerPolicy:
    """``policy`` recast as a subclass whose gate never skips a record."""
    cls = type(policy)
    policy.__class__ = type(
        f"Ungated{cls.__name__}",
        (cls,),
        {"__slots__": (), "io_gate": lambda self: -math.inf},
    )
    return policy


def _after_io_owner(cls: type) -> type:
    """The class on ``cls``'s MRO that defines the ``after_io`` it runs."""
    return next(klass for klass in cls.__mro__ if "after_io" in vars(klass))


def _sha(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _run(
    workload_name: str, faults: str | None, policy_name: str, gated: bool
) -> tuple[str, str, dict, int]:
    """``(result sha256, action-log sha256, final policy state,
    after_io calls)`` of one cell."""
    workload = build_workload(workload_name, False)
    context = _context(workload, policy_name, faults)
    policy = POLICIES[policy_name](context.enclosure_names())
    if not gated:
        policy = _ungated(policy)
    calls = 0
    owner = _after_io_owner(type(policy))
    after_io = owner.after_io

    def counted(self: PowerPolicy, *args: object) -> None:
        nonlocal calls
        if self is policy:
            calls += 1
        after_io(self, *args)

    # Policies are slotted, so the count wraps the method where it is
    # defined: the default gate's override test still sees the same
    # ``after_io`` on the policy's class and on ``PowerPolicy``.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, "after_io", counted)
        result = run_on_context(context, workload, policy)
    actions = [record.to_dict() for record in result.replay.actions]
    state = policy.snapshot_state()
    return _sha(result_to_dict(result)), _sha(actions), state, calls


@pytest.mark.parametrize("policy_name", list(POLICIES))
@pytest.mark.parametrize("workload_name,faults", CELLS, ids=CELL_IDS)
def test_ungated_run_is_bit_identical(workload_name, faults, policy_name):
    gated = _run(workload_name, faults, policy_name, gated=True)
    ungated = _run(workload_name, faults, policy_name, gated=False)
    assert gated[:3] == ungated[:3]
    assert gated[3] <= ungated[3]


@pytest.mark.parametrize("policy_name", ["proposed", "ddr", "no-power-saving"])
def test_gate_skips_calls(policy_name):
    # The gate is more than a pass-through where the policy says so.
    gated = _run("fileserver", "storm", policy_name, gated=True)
    ungated = _run("fileserver", "storm", policy_name, gated=False)
    assert gated[3] < ungated[3]


@pytest.mark.parametrize(
    "policy_name,gate",
    [
        ("no-power-saving", math.inf),
        ("cache-only", math.inf),
        ("pdc", -math.inf),
        ("zoned", -math.inf),
        ("tiered-lifecycle", -math.inf),
    ],
)
def test_default_gate_follows_the_after_io_override(policy_name, gate):
    policy = POLICIES[policy_name](["enc-00", "enc-01"])
    assert policy.io_gate() == gate


@pytest.mark.parametrize("policy_name", ["proposed", "ddr"])
@pytest.mark.parametrize("workload_name,faults", CELLS, ids=CELL_IDS)
def test_after_io_below_the_gate_changes_nothing(
    workload_name, faults, policy_name
):
    workload = build_workload(workload_name, False)
    context = _context(workload, policy_name, faults)
    workload.install(context)
    policy = POLICIES[policy_name](context.enclosure_names())
    policy.bind(context)
    trace = workload.columnar()
    kernel = SimulationKernel(context, policy)
    probed = 0

    def probe(count: int, ts: float) -> None:
        nonlocal probed
        if count % 7 or ts >= policy.io_gate():
            return
        row = count - 1
        item = trace.items[trace.item_index[row]]
        before = policy.snapshot_state()
        logged = len(context.executor.log)
        policy.after_io(
            ts, item, trace.offsets[row], trace.sizes[row], True, False, 0.01
        )
        assert policy.snapshot_state() == before
        assert len(context.executor.log) == logged
        probed += 1

    kernel.set_record_hook(probe)
    kernel.replay(trace, duration=workload.duration)
    assert probed > 0
