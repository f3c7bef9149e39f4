"""Fixture: trips only R9 (tier placement mutated outside repro.actions)."""

storage_controller = object()
virtualization = object()

storage_controller.promote_item(0.0, "item", "flash")
storage_controller.demote_item(0.0, "item", "hdd")
storage_controller.archive_item(0.0, "item")
storage_controller.replicate_item(0.0, "item", "hdd")
virtualization.add_replica("item", "enc-01", 512)
virtualization.remove_replica("item", "enc-01")
