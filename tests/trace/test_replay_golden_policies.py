"""Golden bit-identity regression for the policies outside the main golden.

``replay_fileserver_smoke.json`` pins the four ``STANDARD_POLICIES``
only.  This file pins the remaining two per-I/O hook implementations on
the same fileserver smoke trace:

* ``tiered-lifecycle`` on the tiered (flash + HDD + archive) testbed;
* a mixed :class:`~repro.baselines.zoned.ZonedPolicy` — DDR on the first
  half of the enclosures, the proposed method on the second half.

Each cell records ``asdict(ReplayResult)`` plus the full action log.
The fixture must never be regenerated to paper over a mismatch; a
deliberate, reviewed semantic change regenerates it with::

    PYTHONPATH=src python tests/trace/test_replay_golden_policies.py --regen
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.baselines.ddr import DDRPolicy
from repro.baselines.tiered import TieredLifecyclePolicy
from repro.baselines.zoned import Zone, ZonedPolicy
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.experiments.testbed import build_workload
from repro.simulation import build_context
from repro.trace.columnar import ColumnarTrace
from repro.trace.replay import TraceReplayer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / (
    "replay_fileserver_smoke_tiered_zoned.json"
)


def _tiered_cell():
    workload = build_workload("fileserver", full=False)
    context = build_context(
        DEFAULT_CONFIG, workload.enclosure_count, flash_count=1, archive_count=1
    )
    return workload, context, TieredLifecyclePolicy()


def _zoned_cell():
    workload = build_workload("fileserver", full=False)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    names = context.enclosure_names()
    half = len(names) // 2
    policy = ZonedPolicy(
        [
            Zone("db", tuple(names[:half]), DDRPolicy()),
            Zone("archive", tuple(names[half:]), EnergyEfficientPolicy()),
        ]
    )
    return workload, context, policy


CELLS = {
    "tiered-lifecycle": _tiered_cell,
    "zoned-ddr+proposed": _zoned_cell,
}


def _capture_cell(label: str, columnar: bool = False) -> dict:
    """Replay one cell and flatten its result and action log."""
    workload, context, policy = CELLS[label]()
    workload.install(context)
    records: object = workload.records
    if columnar:
        records = ColumnarTrace.from_records(workload.records)
    result = TraceReplayer(context, policy).run(
        records, duration=workload.duration
    )
    return {
        "replay": asdict(result),
        "actions": [record.to_dict() for record in result.actions],
    }


def capture_all(columnar: bool = False) -> dict:
    """Capture every cell of this fixture."""
    return {label: _capture_cell(label, columnar) for label in CELLS}


@pytest.mark.parametrize("columnar", [False, True], ids=["object", "columnar"])
def test_replay_bit_identical_to_golden(columnar):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    captured = json.loads(json.dumps(capture_all(columnar=columnar)))
    assert captured.keys() == golden.keys()
    for label in golden:
        assert captured[label] == golden[label], (
            f"replay of cell {label!r} diverged from its golden result"
        )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run without --regen (see module docstring)")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(capture_all(), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
