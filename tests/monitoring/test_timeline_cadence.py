"""Regression: timeline cadence across record gaps with no checkpoint.

Pre-kernel, timeline sampling was *lazy*: `TraceReplayer` only probed
`sample_due()` when a record or a policy checkpoint arrived, so a long
record gap under a policy with no checkpoints (no-power-saving's
`next_checkpoint()` is always None) produced no samples until the next
record finally backfilled every missed boundary in one batch — exact
values, but only because nothing can mutate state mid-gap.  The
:mod:`repro.engine` kernel fixes this structurally: the timeline's next
boundary is the kernel's sample slot, fired at its own virtual time, so
the cadence holds by construction, not by the accident of the next
record's arrival.

These tests pin the *observable* contract both engines satisfy — one
point per boundary, exact timestamps, exact idle-level interval watts —
so any future kernel change that lumps, skips, or zeroes gap samples
fails here even if the golden test's workloads never hit the case.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.config import DEFAULT_CONFIG
from repro.monitoring.timeline import PowerTimeline
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer

INTERVAL = 60.0


def _replay(records, duration):
    context = build_context(DEFAULT_CONFIG, 2)
    context.virtualization.add_item("a", units.MB, default_volume("enc-00"))
    context.app_monitor.register_item("a", default_volume("enc-00"))
    timeline = PowerTimeline(context.enclosures, interval_seconds=INTERVAL)
    TraceReplayer(context, NoPowerSavingPolicy(), timeline).run(
        records, duration=duration
    )
    return context, timeline


def _record(ts: float) -> LogicalIORecord:
    return LogicalIORecord(ts, "a", 0, 4096, IOType.READ)


def test_gap_between_records_samples_every_boundary() -> None:
    # 15 empty intervals between the two records, no checkpoint anywhere
    # (no-power-saving never asks for one).
    context, timeline = _replay([_record(5.0), _record(905.0)], 1000.0)
    boundaries = [p.timestamp for p in timeline.points]
    assert boundaries == [INTERVAL * k for k in range(1, 17)] + [1000.0]
    # Mid-gap intervals carry exact idle power: both enclosures stay on
    # (never power-managed), so every gap interval integrates to
    # idle_watts × interval per enclosure — not zero, not a lump.
    idle = context.enclosures[0].power_model.idle_watts
    for point in timeline.points[2:15]:
        assert point.total_watts == pytest.approx(2 * idle, rel=1e-9)


def test_gap_after_last_record_is_settled_by_finish() -> None:
    # All boundaries past the last record land via end-of-run settlement
    # (the kernel leaves them to ``timeline.finish`` so they observe the
    # tail flush — pre-kernel ordering, pinned bit-identical).
    _, timeline = _replay([_record(5.0)], 1000.0)
    boundaries = [p.timestamp for p in timeline.points]
    assert boundaries == [INTERVAL * k for k in range(1, 17)] + [1000.0]


def test_empty_trace_with_duration_keeps_cadence() -> None:
    _, timeline = _replay([], 250.0)
    assert [p.timestamp for p in timeline.points] == [60.0, 120.0, 180.0, 240.0, 250.0]
