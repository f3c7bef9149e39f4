"""Property tests: controller-level conservation invariants.

Whatever mix of reads, writes, preloads, write-delay selections and
migrations is thrown at the controller, bookkeeping must balance:
every logical I/O is answered exactly once, dirty data never outlives a
finish(), and energy/time never go backwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.storage.virtualization import BlockVirtualization
from repro.trace.records import IOType, LogicalIORecord

from tests.io_helpers import io_fields

ITEMS = ("a", "b", "c")


def build_controller():
    encs = [
        DiskEnclosure(
            f"e{i}", iops_random=2.0, iops_sequential=6.0,
            capacity_bytes=10 * units.GB,
        )
        for i in range(3)
    ]
    virt = BlockVirtualization(encs)
    for i, item in enumerate(ITEMS):
        virt.create_volume(f"v{i}", f"e{i}")
        virt.add_item(item, 64 * units.MB, f"v{i}")
    return StorageController(virt, StorageCache()), virt, encs


@st.composite
def operations(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("io"),
                    st.sampled_from(ITEMS),
                    st.booleans(),  # read?
                    st.integers(min_value=0, max_value=60 * units.MB),
                ),
                st.tuples(st.just("preload"), st.sampled_from(ITEMS)),
                st.tuples(st.just("unpin"), st.sampled_from(ITEMS)),
                st.tuples(st.just("wd"), st.sampled_from(ITEMS)),
                st.tuples(
                    st.just("migrate"),
                    st.sampled_from(ITEMS),
                    st.sampled_from(["e0", "e1", "e2"]),
                ),
            ),
            max_size=40,
        )
    )
    return ops


def run_ops(controller, virt, ops):
    clock = 0.0
    submitted = 0
    for op in ops:
        clock += 1.0
        kind = op[0]
        if kind == "io":
            _, item, is_read, offset = op
            offset = (offset // units.BLOCK_SIZE) * units.BLOCK_SIZE
            record = LogicalIORecord(
                clock,
                item,
                offset,
                4096,
                IOType.READ if is_read else IOType.WRITE,
            )
            response = controller.submit(*io_fields(record))
            assert response > 0
            submitted += 1
        elif kind == "preload":
            controller.preload_item(clock, op[1])
        elif kind == "unpin":
            controller.unpin_item(op[1])
        elif kind == "wd":
            selected = controller.cache.write_delay.selected_items()
            controller.select_write_delay(clock, selected | {op[1]})
        elif kind == "migrate":
            controller.migrate_item(clock, op[1], op[2])
    return clock, submitted


@given(operations())
@settings(max_examples=100, deadline=None)
def test_every_logical_io_counted_once(ops):
    controller, virt, _ = build_controller()
    _, submitted = run_ops(controller, virt, ops)
    assert controller.logical_io_count == submitted


@given(operations())
@settings(max_examples=100, deadline=None)
def test_finish_leaves_no_dirty_data(ops):
    controller, virt, _ = build_controller()
    clock, _ = run_ops(controller, virt, ops)
    controller.finish(clock + 10.0)
    assert controller.cache.write_delay.dirty_pages == 0


@given(operations())
@settings(max_examples=100, deadline=None)
def test_items_always_resolvable(ops):
    controller, virt, _ = build_controller()
    run_ops(controller, virt, ops)
    for item in ITEMS:
        enclosure, block = virt.resolve(item, 0)
        assert enclosure in ("e0", "e1", "e2")
        assert block >= 0


@given(operations())
@settings(max_examples=100, deadline=None)
def test_energy_monotone_under_any_operation_mix(ops):
    controller, virt, encs = build_controller()
    clock = 0.0
    last_energy = 0.0
    for op in ops:
        clock += 1.0
        try:
            if op[0] == "io":
                offset = (op[3] // units.BLOCK_SIZE) * units.BLOCK_SIZE
                record = LogicalIORecord(
                    clock, op[1], offset, 4096,
                    IOType.READ if op[2] else IOType.WRITE,
                )
                controller.submit(*io_fields(record))
            elif op[0] == "migrate":
                controller.migrate_item(clock, op[1], op[2])
        except Exception:
            raise
        energy = sum(e.energy_joules() for e in encs)
        assert energy >= last_energy - 1e-9
        last_energy = energy


@given(operations())
@settings(max_examples=100, deadline=None)
def test_preload_pin_state_consistent(ops):
    controller, virt, _ = build_controller()
    run_ops(controller, virt, ops)
    pinned = controller.cache.preload.item_ids()
    # Pinned bytes accounting matches the items' sizes.
    expected = sum(virt.item_size(item) for item in pinned)
    assert controller.cache.preload.used_bytes == expected
    assert controller.cache.preload.used_bytes <= (
        controller.cache.preload.capacity_bytes
    )
