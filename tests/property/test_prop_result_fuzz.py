"""Property tests: a damaged result-cache entry misses or loads faithfully.

A real smoke cell (TPC-C under DDR with the ``storm`` fault plan, so
the entry carries an action log and a fault report) is run once through
the engine's on-disk cache.  The entry's bytes are then truncated,
flipped and spliced, and :meth:`ExperimentEngine._cache_load` reads
them back.  It must never raise: it returns ``None`` (a miss, and the
cell replays), or exactly the result that was stored.  Each entry
carries the sha256 of its result text, so damage that still decodes —
a flipped digit that reads as a different number — misses too, and any
change to the bytes of the result payload misses.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.parallel import (
    ExperimentCell,
    ExperimentEngine,
    PolicySpec,
    WorkloadSpec,
)
from repro.experiments.serialize import (
    RESULT_FORMAT,
    result_from_dict,
    result_to_dict,
)
from repro.faults.chaos import build_fault_plan


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    """``(engine, key, entry bytes, result)`` of one cached smoke cell."""
    spec = WorkloadSpec(name="tpcc", overrides=(("duration", 1300.0),))
    workload = spec.build()
    names = [f"enc-{i:02d}" for i in range(workload.enclosure_count)]
    plan = build_fault_plan(
        "storm", 0, workload.duration, names, workload.item_ids()
    )
    cell = ExperimentCell(workload=spec, policy=PolicySpec("ddr"), faults=plan)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path_factory.mktemp("cache"))
    (result,) = (outcome.require() for outcome in engine.run_cells([cell]))
    key = cell.cache_key()
    image = engine._cache_path(key).read_bytes()
    assert result.replay.actions, "the entry should carry an action log"
    return engine, key, image, result


#: Byte positions: biased toward the head of the entry, where the
#: format marker and key sit, and otherwise anywhere in it.
positions = st.one_of(st.integers(0, 255), st.integers(0, 10**6))

mutations = st.one_of(
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("flip"), positions, st.integers(1, 255)),
    st.tuples(st.just("splice"), positions, positions, positions),
)


def _mutate(image: bytes, steps) -> bytes:
    data = bytearray(image)
    for step in steps:
        kind, position = step[0], step[1] % (len(data) + 1)
        if kind == "truncate":
            del data[position:]
        elif kind == "flip" and position < len(data):
            data[position] ^= step[2]
        elif kind == "splice":
            # Replace data[position:end] with another stretch of itself.
            end = min(len(data), position + step[2] % 64)
            source = step[3] % (len(data) + 1)
            data[position:end] = data[source : source + step[2] % 64]
    return bytes(data)


@given(steps=st.lists(mutations, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_damaged_entry_misses_or_loads_faithfully(cached, steps):
    engine, key, image, result = cached
    path = engine._cache_path(key)
    damaged = _mutate(image, steps)
    path.write_bytes(damaged)
    try:
        loaded = engine._cache_load(key)
    finally:
        path.write_bytes(image)
    if loaded is not None:
        assert _canonical(result_to_dict(loaded)) == _canonical(
            result_to_dict(result)
        )


def _payload_span(image: bytes, result) -> tuple[int, int]:
    """Byte range of the stored result text: the entry's last member."""
    text = _canonical(result_to_dict(result)).encode("utf-8")
    assert image.endswith(text + b"}")
    start = len(image) - len(text) - 1
    return start, start + len(text)


@given(offset=st.integers(0, 10**9), flip=st.integers(1, 255))
@settings(max_examples=150, deadline=None)
def test_any_flip_inside_the_result_payload_misses(cached, offset, flip):
    engine, key, image, result = cached
    start, end = _payload_span(image, result)
    position = start + offset % (end - start)
    damaged = bytearray(image)
    damaged[position] ^= flip
    path = engine._cache_path(key)
    path.write_bytes(bytes(damaged))
    try:
        assert engine._cache_load(key) is None
    finally:
        path.write_bytes(image)


@given(
    offset=st.integers(0, 10**9),
    length=st.integers(1, 64),
    source=st.integers(0, 10**9),
)
@settings(max_examples=100, deadline=None)
def test_any_splice_inside_the_result_payload_misses(
    cached, offset, length, source
):
    engine, key, image, result = cached
    start, end = _payload_span(image, result)
    position = start + offset % (end - start)
    stop = min(end, position + length)
    origin = start + source % (end - start)
    damaged = (
        image[:position] + image[origin : origin + length] + image[stop:]
    )
    if damaged == image:
        return
    path = engine._cache_path(key)
    path.write_bytes(damaged)
    try:
        assert engine._cache_load(key) is None
    finally:
        path.write_bytes(image)


def test_undamaged_entry_loads_equal(cached):
    engine, key, _, result = cached
    loaded = engine._cache_load(key)
    assert loaded == result
    assert _canonical(result_to_dict(loaded)) == _canonical(result_to_dict(result))


@pytest.mark.parametrize("top_level", ["[]", '"x"', "3", "null"])
def test_non_object_entry_is_a_miss(cached, top_level):
    # A valid JSON document that is not an object used to escape
    # _cache_load as an AttributeError and abort the whole sweep.
    engine, key, image, _ = cached
    path = engine._cache_path(key)
    path.write_text(top_level, encoding="utf-8")
    try:
        assert engine._cache_load(key) is None
    finally:
        path.write_bytes(image)


def test_non_object_entry_replays_the_cell(tmp_path):
    spec = WorkloadSpec(name="tpcc", overrides=(("duration", 1300.0),))
    cell = ExperimentCell(workload=spec, policy=PolicySpec("no-power-saving"))
    (tmp_path / f"{cell.cache_key()}.json").write_text("[]", encoding="utf-8")
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    (outcome,) = engine.run_cells([cell])
    assert outcome.ok
    assert engine.cache_hits == 0 and engine.replays == 1


@pytest.mark.parametrize(
    "payload",
    [[], "x", {"format": RESULT_FORMAT}, {"format": RESULT_FORMAT, "replay": []}],
    ids=["list", "string", "missing-keys", "wrong-shape"],
)
def test_malformed_payload_raises_experiment_error(payload):
    with pytest.raises(ExperimentError):
        result_from_dict(payload)


def test_payload_without_action_log_is_malformed(cached):
    # Every format-3 payload carries its action log; one without it is
    # damaged, not an empty log.
    _, _, image, _ = cached
    payload = json.loads(image)["result"]
    del payload["actions"]
    with pytest.raises(ExperimentError):
        result_from_dict(payload)
