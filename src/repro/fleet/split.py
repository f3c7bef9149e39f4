"""Partition workloads into per-array sub-workloads, bit-stably.

A fleet run replays N independent kernels, each over exactly the slice
of the workload its array owns.  The slicing here is **order- and
bit-stable**: filtered records keep their original relative order (the
trace stays time-ordered), item catalogs keep catalog order, and the
columnar path (:func:`shard_columnar`) produces byte-for-byte the same
columns as packing the filtered record objects would — so object and
``.ecot`` traces shard identically.

The conservation law the fleet auditor later checks is established
here: every record of the source workload lands in **exactly one**
sub-workload (the router is a total function of the item id), and a
1-array split returns the source workload unchanged — same object, no
renaming — which is what keeps 1-array fleets bit-identical to the
golden single-array replay.

For N > 1 every component name is namespaced with the owning array's
id: enclosures are renamed by :func:`repro.simulation.build_context`
(``array_id`` parameter), and the workload's *explicit* volumes are
renamed here (``"array-01:fsvol-07"``), so no name collides fleet-wide
and the global action/fault books stay unambiguous.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import replace

import numpy as np

from repro.errors import ValidationError
from repro.fleet.routing import ARRAY_SEPARATOR, HashRouter
from repro.trace.columnar import ColumnarTrace
from repro.workloads.items import Workload

__all__ = ["shard_columnar", "shard_workload", "split_workload"]


def _owner_table(router: HashRouter, item_ids: Iterable[str]) -> dict[str, int]:
    """Owning array index of each distinct item id, hashed once each."""
    owners: dict[str, int] = {}
    for item_id in item_ids:
        if item_id not in owners:
            owners[item_id] = router.shard_for(item_id)
    return owners


def shard_columnar(
    trace: ColumnarTrace,
    router: HashRouter,
    array_index: int,
    owners: Mapping[str, int] | None = None,
) -> ColumnarTrace:
    """The columnar slice of ``trace`` owned by array ``array_index``.

    A keep-mask from the item-owner table and one gather per column
    (:meth:`ColumnarTrace.take`); the kept records preserve their
    original order and item ids are re-interned in first-appearance
    order, so the result is bit-identical to
    ``ColumnarTrace.from_records(filtered record objects)``.
    ``owners`` maps every item id of the trace to its array; without
    it the router is asked once per item.
    """
    if not 0 <= array_index < router.n_arrays:
        raise ValidationError(
            f"array index {array_index} outside fleet of {router.n_arrays}"
        )
    if owners is None:
        owners = _owner_table(router, trace.items)
    table = np.array([owners[item_id] for item_id in trace.items], dtype=np.int64)
    item_index = np.frombuffer(trace.item_index, dtype=np.uint32)
    return trace.take(np.flatnonzero(table[item_index] == array_index))


def _namespace(array_id: str, name: str) -> str:
    """Prefix a component name with its owning array's namespace."""
    return f"{array_id}{ARRAY_SEPARATOR}{name}"


def shard_workload(
    workload: Workload,
    router: HashRouter,
    array_index: int,
    owners: Mapping[str, int] | None = None,
) -> Workload:
    """The sub-workload array ``array_index`` owns.

    For a 1-array fleet the source workload is returned **unchanged**
    (same object — no renaming, no copying), preserving bit-identity
    with standalone runs.  For N > 1 the result keeps the source's
    duration, enclosure count, phases, and app metrics; owns exactly
    the items the router assigns to this array (catalog order
    preserved) plus their trace records (trace order preserved); and
    namespaces every explicit volume name with the array id.  Items and
    records the array does not own appear in exactly one *other*
    array's sub-workload.  ``owners`` maps every catalog and trace item
    id to its array; without it the router is asked once per item.
    """
    if not 0 <= array_index < router.n_arrays:
        raise ValidationError(
            f"array index {array_index} outside fleet of {router.n_arrays}"
        )
    if router.n_arrays == 1:
        return workload
    array_id = router.array_id(array_index)
    assert array_id is not None  # n_arrays > 1
    if owners is None:
        owners = _workload_owners(workload, router)
    owned = [
        item for item in workload.items if owners[item.item_id] == array_index
    ]
    items = [
        item
        if item.volume is None
        else replace(item, volume=_namespace(array_id, item.volume))
        for item in owned
    ]
    volumes = [
        (_namespace(array_id, name), index)
        for name, index in workload.volumes
    ]
    return Workload(
        name=workload.name,
        duration=workload.duration,
        enclosure_count=workload.enclosure_count,
        items=items,
        records=shard_columnar(workload.records, router, array_index, owners),
        volumes=volumes,
        description=(
            f"{workload.description} [{array_id} of {router.n_arrays}]"
            if workload.description
            else f"{array_id} of {router.n_arrays}"
        ),
        app_metrics=dict(workload.app_metrics),
        phases=list(workload.phases),
    )


def split_workload(
    workload: Workload, router: HashRouter
) -> list[Workload]:
    """Every array's sub-workload, in array order.

    The partition is exact: each item (and each of its trace records)
    appears in exactly one element of the returned list.  Each item id
    is hashed once per split, not once per array.
    """
    owners = _workload_owners(workload, router)
    return [
        shard_workload(workload, router, index, owners)
        for index in range(router.n_arrays)
    ]


def _workload_owners(workload: Workload, router: HashRouter) -> dict[str, int]:
    """The owner table of every catalog and trace item of ``workload``."""
    return _owner_table(
        router,
        [item.item_id for item in workload.items] + list(workload.records.items),
    )
