"""Splitting: exact partition, order stability, columnar bit-identity."""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.experiments.testbed import build_workload
from repro.fleet.routing import HashRouter
from repro.fleet.split import shard_columnar, shard_workload, split_workload
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import IOType, LogicalIORecord
from repro.workloads.items import DataItemSpec, Workload


def _toy_workload(item_count: int, record_seed: int) -> Workload:
    """A small deterministic workload over ``item_count`` items."""
    items = [
        DataItemSpec(
            item_id=f"item-{i:03d}",
            size_bytes=4096 * (i + 1),
            enclosure_index=i % 3,
            volume=f"toyvol-{i % 2}" if i % 4 == 0 else None,
        )
        for i in range(item_count)
    ]
    records = [
        LogicalIORecord(
            timestamp=float(t),
            item_id=items[(t * 7 + record_seed) % item_count].item_id,
            offset=512 * t,
            size=4096,
            io_type="read" if t % 3 else "write",
            sequential=bool(t % 2),
        )
        for t in range(60)
    ]
    volumes = sorted({(v, 0) for v in ("toyvol-0", "toyvol-1")})
    return Workload(
        name="toy",
        duration=120.0,
        enclosure_count=3,
        items=items,
        records=records,
        volumes=volumes,
        description="toy split fixture",
    )


@given(
    item_count=st.integers(2, 12),
    record_seed=st.integers(0, 20),
    n=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_split_partitions_every_record_exactly_once(
    item_count, record_seed, n, seed
):
    workload = _toy_workload(item_count, record_seed)
    router = HashRouter(n, seed)
    shards = split_workload(workload, router)
    assert len(shards) == n
    # Items: exactly once, catalog order preserved within each shard.
    shard_items = [
        [item.item_id for item in shard.items] for shard in shards
    ]
    merged_items = sorted(sum(shard_items, []))
    assert merged_items == sorted(item.item_id for item in workload.items)
    catalog_order = {
        item.item_id: i for i, item in enumerate(workload.items)
    }
    for ids in shard_items:
        assert ids == sorted(ids, key=catalog_order.__getitem__)
    # Records: exactly once, trace order preserved within each shard.
    def keys(records):
        return [
            (r.timestamp, r.item_id, r.offset, r.size, r.io_type)
            for r in records
        ]

    all_shard_keys = [keys(shard.records) for shard in shards]
    assert sorted(sum(all_shard_keys, [])) == sorted(keys(workload.records))
    for shard_keys in all_shard_keys:
        assert shard_keys == sorted(shard_keys, key=lambda k: k[0])
    # Ownership: every shard holds only what the router assigns it.
    for index, shard in enumerate(shards):
        for item in shard.items:
            bare = item.item_id
            assert router.shard_for(bare) == index


def test_single_array_split_returns_source_object():
    workload = _toy_workload(6, 0)
    router = HashRouter(1, seed=99)
    assert shard_workload(workload, router, 0) is workload


def test_multi_array_split_namespaces_volumes():
    workload = _toy_workload(8, 1)
    router = HashRouter(3, seed=0)
    for index, shard in enumerate(split_workload(workload, router)):
        prefix = f"array-{index:02d}:"
        for name, _ in shard.volumes:
            assert name.startswith(prefix)
        for item in shard.items:
            if item.volume is not None:
                assert item.volume.startswith(prefix)
        assert f"array-{index:02d} of 3" in shard.description


@st.composite
def random_traces(draw):
    """Unsorted records over a few item ids, with repeats."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8))
    return [
        LogicalIORecord(
            timestamp=draw(st.floats(0.0, 1e6)),
            item_id=draw(st.sampled_from(ids)),
            offset=draw(st.integers(0, 2**40)),
            size=draw(st.integers(1, 2**20)),
            io_type=draw(st.sampled_from(IOType)),
            sequential=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 40)))
    ]


@given(records=random_traces(), n=st.integers(1, 5), seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_shard_columnar_bit_identical_to_filtered_from_records(records, n, seed):
    trace = ColumnarTrace.from_records(records)
    router = HashRouter(n, seed)
    shards = [shard_columnar(trace, router, index) for index in range(n)]
    for index, sharded in enumerate(shards):
        filtered = ColumnarTrace.from_records(
            [r for r in records if router.shard_for(r.item_id) == index]
        )
        assert sharded.items == filtered.items
        for name, code in (
            ("timestamps", "d"),
            ("item_index", "I"),
            ("offsets", "q"),
            ("sizes", "q"),
        ):
            column = getattr(sharded, name)
            assert type(column) is array and column.typecode == code
            assert column == getattr(filtered, name)
        assert type(sharded.flags) is bytes
        assert sharded.flags == filtered.flags
    # The shards partition the trace: every record lands in one shard.
    assert sum(len(shard) for shard in shards) == len(trace)
    owned = [set(shard.items) for shard in shards]
    assert set().union(*owned) == set(trace.items)
    assert sum(len(items) for items in owned) == len(trace.items)


def test_columnar_workload_shards_keep_columnar_records():
    workload = build_workload("fileserver", full=False)
    columnar = Workload(
        name=workload.name,
        duration=workload.duration,
        enclosure_count=workload.enclosure_count,
        items=workload.items,
        records=workload.columnar(),  # type: ignore[arg-type]
        volumes=workload.volumes,
    )
    router = HashRouter(3, seed=7)
    shards = split_workload(columnar, router)
    assert all(isinstance(s.records, ColumnarTrace) for s in shards)
    assert sum(len(s.records) for s in shards) == len(workload.records)
    # columnar() is the shard's own trace, no re-pack.
    assert shards[0].columnar() is shards[0].records


def test_split_validates_array_index():
    workload = _toy_workload(4, 0)
    router = HashRouter(2)
    with pytest.raises(ValidationError):
        shard_workload(workload, router, 2)
    with pytest.raises(ValidationError):
        shard_columnar(
            ColumnarTrace.from_records(workload.records), router, -1
        )


def _ecot_image(trace: ColumnarTrace) -> bytes:
    chunks: list[bytes] = []
    trace.write_to(chunks.append)
    return b"".join(chunks)


def test_split_hashes_each_item_once(monkeypatch: pytest.MonkeyPatch):
    workload = build_workload("fileserver", full=False)
    router = HashRouter(4, seed=7)
    # The shards as the per-array filter builds them: catalog items and
    # trace records whose item the router assigns to the array.
    expected = []
    for index in range(4):
        owned = [
            item
            for item in workload.items
            if router.shard_for(item.item_id) == index
        ]
        trace = ColumnarTrace.from_records(
            [
                record
                for record in workload.records
                if router.shard_for(record.item_id) == index
            ]
        )
        expected.append((owned, _ecot_image(trace)))

    calls: list[str] = []
    shard_for = HashRouter.shard_for

    def counted(self: HashRouter, item_id: str) -> int:
        calls.append(item_id)
        return shard_for(self, item_id)

    monkeypatch.setattr(HashRouter, "shard_for", counted)
    shards = split_workload(workload, router)

    catalog = {item.item_id for item in workload.items}
    assert sorted(calls) == sorted(catalog | set(workload.records.items))
    for index, (shard, (owned, image)) in enumerate(zip(shards, expected)):
        assert shard.items == [
            item
            if item.volume is None
            else replace(item, volume=f"array-{index:02d}:{item.volume}")
            for item in owned
        ]
        assert _ecot_image(shard.records) == image
