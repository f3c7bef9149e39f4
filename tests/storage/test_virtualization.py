"""Tests for repro.storage.virtualization."""

import pytest

from repro import units
from repro.errors import CapacityError, MappingError
from repro.storage.enclosure import DiskEnclosure
from repro.storage.virtualization import BlockVirtualization


def make_virt(count=2, capacity=units.GB) -> BlockVirtualization:
    enclosures = [
        DiskEnclosure(f"e{i}", capacity_bytes=capacity) for i in range(count)
    ]
    virt = BlockVirtualization(enclosures)
    for i in range(count):
        virt.create_volume(f"v{i}", f"e{i}")
    return virt


class TestConstruction:
    def test_requires_enclosures(self):
        with pytest.raises(ValueError):
            BlockVirtualization([])

    def test_duplicate_names_rejected(self):
        encs = [DiskEnclosure("same"), DiskEnclosure("same")]
        with pytest.raises(ValueError):
            BlockVirtualization(encs)

    def test_enclosure_lookup(self):
        virt = make_virt()
        assert virt.enclosure("e0").name == "e0"
        with pytest.raises(MappingError):
            virt.enclosure("ghost")


class TestVolumes:
    def test_create_and_lookup(self):
        virt = make_virt()
        volume = virt.volume("v0")
        assert volume.enclosure == "e0"

    def test_duplicate_volume_rejected(self):
        virt = make_virt()
        with pytest.raises(MappingError):
            virt.create_volume("v0", "e0")

    def test_volume_on_unknown_enclosure_rejected(self):
        virt = make_virt()
        with pytest.raises(MappingError):
            virt.create_volume("vx", "ghost")


class TestItems:
    def test_add_and_resolve(self):
        virt = make_virt()
        virt.add_item("a", 10 * units.MB, "v0")
        assert virt.route("a") == (virt.enclosure("e0"), "e0", 10 * units.MB)
        assert virt.enclosure_of("a").name == "e0"

    def test_duplicate_item_rejected(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        with pytest.raises(MappingError):
            virt.add_item("a", units.MB, "v1")

    def test_capacity_enforced(self):
        virt = make_virt(capacity=units.MB)
        with pytest.raises(CapacityError):
            virt.add_item("big", 2 * units.MB, "v0")

    def test_used_and_free_bytes(self):
        virt = make_virt(capacity=units.GB)
        virt.add_item("a", 100 * units.MB, "v0")
        assert virt.used_bytes("e0") == 100 * units.MB
        assert virt.free_bytes("e0") == units.GB - 100 * units.MB
        assert virt.used_bytes("e1") == 0

    def test_remove_item(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        virt.remove_item("a")
        assert not virt.has_item("a")
        assert virt.used_bytes("e0") == 0

    def test_remove_unknown_rejected(self):
        with pytest.raises(MappingError):
            make_virt().remove_item("ghost")

    def test_items_on(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        virt.add_item("b", units.MB, "v1")
        assert virt.items_on("e0") == ["a"]
        assert virt.items_on("e1") == ["b"]

    def test_item_size(self):
        virt = make_virt()
        virt.add_item("a", 5 * units.MB, "v0")
        assert virt.item_size("a") == 5 * units.MB
        with pytest.raises(MappingError):
            virt.item_size("ghost")

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_virt().add_item("a", 0, "v0")


class TestMoveItem:
    def test_move_updates_mapping_and_accounting(self):
        virt = make_virt()
        virt.add_item("a", 100 * units.MB, "v0")
        src, dst = virt.move_item("a", "e1")
        assert (src, dst) == ("e0", "e1")
        assert virt.enclosure_of("a").name == "e1"
        assert virt.used_bytes("e0") == 0
        assert virt.used_bytes("e1") == 100 * units.MB

    def test_move_to_same_enclosure_is_noop(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        assert virt.move_item("a", "e0") == ("e0", "e0")

    def test_move_respects_capacity(self):
        virt = make_virt(capacity=100 * units.MB)
        virt.add_item("a", 80 * units.MB, "v0")
        virt.add_item("b", 80 * units.MB, "v1")
        with pytest.raises(CapacityError):
            virt.move_item("a", "e1")

    def test_move_to_unknown_enclosure_rejected(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        with pytest.raises(MappingError):
            virt.move_item("a", "ghost")

    def test_resolve_after_move(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        assert virt.route("a")[1] == "e0"
        virt.move_item("a", "e1")
        assert virt.route("a")[1] == "e1"

    def test_repeated_moves(self):
        virt = make_virt()
        virt.add_item("a", units.MB, "v0")
        virt.move_item("a", "e1")
        virt.move_item("a", "e0")
        assert virt.enclosure_of("a").name == "e0"
        assert virt.used_bytes("e1") == 0

    def test_recount_follows_moves_and_removals(self):
        virt = make_virt(count=3)
        virt.create_volume("v0b", "e0")
        virt.add_item("a", 3 * units.MB, "v0")
        virt.add_item("b", 5 * units.MB, "v0b")
        virt.add_item("c", 7 * units.MB, "v1")
        virt.move_item("a", "e1")
        virt.remove_item("c")
        recounted = virt.recount_used_bytes()
        assert recounted == {"e0": 5 * units.MB, "e1": 3 * units.MB, "e2": 0}
        assert recounted == {
            name: virt.used_bytes(name) for name in virt.enclosure_names
        }
