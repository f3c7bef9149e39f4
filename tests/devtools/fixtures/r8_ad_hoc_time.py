"""Fixture: trips only R8 (ad-hoc virtual-time calls)."""

power_timeline = object()
storage_controller = object()
session = object()

power_timeline.sample(1.0)
session.timeline.sample(2.0)
storage_controller.on_time(1.0)
