"""Tests for the PDC baseline."""

import pytest

from repro import units
from repro.baselines.pdc import PDCPolicy
from repro.config import DEFAULT_CONFIG
from repro.simulation import build_context, default_volume
from repro.trace.records import IOType, LogicalIORecord
from repro.trace.replay import TraceReplayer

from tests.io_helpers import io_fields


def build_system(items_per_enclosure=2, enclosures=3, size=10 * units.MB):
    context = build_context(DEFAULT_CONFIG, enclosures)
    names = context.enclosure_names()
    for e in range(enclosures):
        for k in range(items_per_enclosure):
            item = f"item-{e}-{k}"
            context.virtualization.add_item(
                item, size, default_volume(names[e])
            )
            context.app_monitor.register_item(item, default_volume(names[e]))
    return context


def stream(item, start, end, gap):
    t = start
    records = []
    while t < end:
        records.append(LogicalIORecord(t, item, 0, 4096, IOType.READ))
        t += gap
    return records


class TestPDCConfiguration:
    def test_period_defaults_from_config(self, small_context):
        policy = PDCPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert policy.monitoring_period == DEFAULT_CONFIG.pdc_monitoring_period
        assert policy.next_checkpoint() == DEFAULT_CONFIG.pdc_monitoring_period

    def test_explicit_period(self, small_context):
        policy = PDCPolicy(monitoring_period=60.0)
        policy.bind(small_context)
        policy.on_start(0.0)
        assert policy.next_checkpoint() == 60.0

    def test_invalid_fill_fraction(self):
        with pytest.raises(ValueError):
            PDCPolicy(load_fill_fraction=0.0)

    def test_all_enclosures_power_off_enabled(self, small_context):
        policy = PDCPolicy()
        policy.bind(small_context)
        policy.on_start(0.0)
        assert all(e.power_off_enabled for e in small_context.enclosures)


class TestPDCBehaviour:
    def test_popular_items_concentrate_on_first_enclosures(self):
        context = build_system()
        policy = PDCPolicy(monitoring_period=500.0)
        records = stream("item-2-0", 0.0, 1000.0, gap=5.0)  # very popular
        records += stream("item-1-0", 3.0, 1000.0, gap=50.0)  # mildly popular
        TraceReplayer(context, policy).run(sorted(records), duration=1000.0)
        # The most popular item ends up on the first enclosure.
        assert context.virtualization.enclosure_of("item-2-0").name == "enc-00"

    def test_determination_per_checkpoint(self):
        context = build_system()
        policy = PDCPolicy(monitoring_period=300.0)
        records = stream("item-0-0", 0.0, 1000.0, gap=10.0)
        result = TraceReplayer(context, policy).run(records, duration=1000.0)
        assert result.determinations == 3

    def test_migration_counted(self):
        context = build_system()
        policy = PDCPolicy(monitoring_period=500.0)
        records = stream("item-2-0", 0.0, 600.0, gap=5.0)
        result = TraceReplayer(context, policy).run(records, duration=600.0)
        assert result.migrated_bytes > 0

    def test_popularity_resets_each_window(self):
        context = build_system()
        policy = PDCPolicy(monitoring_period=300.0)
        policy.bind(context)
        policy.on_start(0.0)
        record = LogicalIORecord(1.0, "item-0-0", 0, 4096, IOType.READ)
        policy.after_io(*io_fields(record), 0.1)
        assert policy._popularity["item-0-0"] == 1
        policy.on_checkpoint(300.0)
        assert not policy._popularity

    def test_oversized_popular_item_placed_alone(self):
        # An item whose measured load alone exceeds the budget must not
        # push every subsequent item onto the last enclosure.
        context = build_system()
        policy = PDCPolicy(monitoring_period=400.0)
        records = stream("item-0-0", 0.0, 400.0, gap=0.5)  # 2 IOPS > budget
        records += stream("item-1-0", 0.3, 400.0, gap=10.0)
        TraceReplayer(context, policy).run(sorted(records), duration=400.0)
        first = context.virtualization.enclosure_of("item-0-0").name
        second = context.virtualization.enclosure_of("item-1-0").name
        assert first == "enc-00"
        assert second == "enc-01"
