"""Tests for the runtime invariant auditor."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.devtools.audit import InvariantAuditor
from repro.errors import AuditError, ReproError
from repro.experiments.runner import run_cell
from repro.simulation import SimulationContext, build_context, default_volume
from repro.storage.controller import StorageController
from repro.storage.meter import PowerMeter, PowerReading
from repro.workloads.fileserver import build_fileserver_workload

#: Long enough to cover several monitoring periods, fast to generate.
SHORT = 2600.0


class _CorruptMeter(PowerMeter):
    """A power meter whose enclosure total drifts by a whole kilojoule."""

    def read(
        self, now: float, controller: StorageController | None = None
    ) -> PowerReading:
        """Return the true reading with the enclosure books inflated."""
        true = super().read(now, controller)
        return PowerReading(
            duration_seconds=true.duration_seconds,
            enclosure_watts=true.enclosure_watts,
            controller_watts=true.controller_watts,
            enclosure_joules=true.enclosure_joules + 1000.0,
            controller_joules=true.controller_joules,
        )


def _fresh_context() -> SimulationContext:
    return build_context(DEFAULT_CONFIG, enclosure_count=2)


def test_clean_context_passes() -> None:
    context = _fresh_context()
    auditor = InvariantAuditor(context)
    auditor.check(0.0)
    auditor.check(60.0)
    assert auditor.checks_run == 2


def test_corrupted_meter_total_raises_audit_error() -> None:
    context = _fresh_context()
    context.meter = _CorruptMeter(
        context.enclosures, context.meter.controller_model
    )
    auditor = InvariantAuditor(context)
    auditor.check(0.0)  # meter not consulted at t=0: books still empty
    with pytest.raises(AuditError, match="power meter disagrees"):
        auditor.check(60.0)


def test_audit_error_is_repro_error_with_state_dump() -> None:
    context = _fresh_context()
    context.meter = _CorruptMeter(
        context.enclosures, context.meter.controller_model
    )
    auditor = InvariantAuditor(context)
    with pytest.raises(ReproError) as excinfo:
        auditor.check(120.0)
    message = str(excinfo.value)
    assert "state dump at t=120.000s" in message
    assert "enc-00" in message
    assert "cache:" in message


def test_placement_drift_raises_audit_error() -> None:
    context = _fresh_context()
    virt = context.virtualization
    volume = default_volume(virt.enclosure_names[0])
    virt.add_item("item-x", 4096, volume)
    auditor = InvariantAuditor(context)
    auditor.check(1.0)
    # Corrupt the used-byte counter behind the API's back.
    enclosure = virt.volume(volume).enclosure
    virt._used_bytes[enclosure] += 4096
    with pytest.raises(AuditError, match="placement accounting drift"):
        auditor.check(2.0)


def _context_with_one_dirty_page() -> SimulationContext:
    context = _fresh_context()
    wd = context.cache.write_delay
    wd.select("item-x")
    wd.absorb_write("item-x", 0, 0)
    return context


def test_drifted_dirty_counter_raises_audit_error() -> None:
    context = _context_with_one_dirty_page()
    auditor = InvariantAuditor(context)
    auditor.check(1.0)
    # Corrupt the O(1) dirty-page counter behind the API's back.
    context.cache.write_delay.dirty_pages += 1
    with pytest.raises(AuditError, match="dirty-page counter drift"):
        auditor.check(2.0)


def test_lost_dirty_page_caught_despite_counter() -> None:
    context = _context_with_one_dirty_page()
    auditor = InvariantAuditor(context)
    auditor.check(1.0)
    # The page vanishes from the sets but the counter still holds it, so
    # absorbed == flushed + counter would pass; the recount must not.
    context.cache.write_delay._dirty["item-x"].clear()
    assert context.cache.write_delay.dirty_pages == 1
    with pytest.raises(AuditError, match="conservation broken"):
        auditor.check(2.0)


def test_time_moving_backwards_raises_audit_error() -> None:
    context = _fresh_context()
    auditor = InvariantAuditor(context)
    auditor.check(100.0)
    with pytest.raises(AuditError, match="audit time moved backwards"):
        auditor.check(50.0)


@pytest.mark.integration
def test_clean_fileserver_run_audits_clean() -> None:
    workload = build_fileserver_workload(duration=SHORT)
    result = run_cell(workload, EnergyEfficientPolicy(), audit=True)
    assert result.audit_checks > 0
    assert result.replay.power.total_joules > 0


def test_audit_disabled_by_default() -> None:
    workload = build_fileserver_workload(duration=SHORT)
    result = run_cell(workload, EnergyEfficientPolicy())
    assert result.audit_checks == 0
