"""The benchmark's own tests, on smoke-sized workloads.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import ExperimentEngine

from perfbench import hostspeed
from perfbench.harness import run_end_to_end, run_traced
from perfbench.tracer import Probe, Tracer, installed
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_follows_the_contract() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) and set(names) <= set(WORKLOADS)
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in SPEC[section]:
            assert set(metric) == keys, metric
            assert metric["better"] in ("higher", "lower"), metric
            names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_run_emits_every_metric(name: str, tmp_path: Path) -> None:
    report = run_end_to_end(WORKLOADS[name], 0, 0.01, tmp_path, full=False)
    assert report.correct, report.problems
    assert report.failed_frac == 0.0
    emitted = {metric: unit for metric, (_, unit) in report.metrics.items()}
    assert emitted == _units("end_to_end")
    assert all(value > 0 for value, _ in report.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(name: str, tmp_path: Path) -> None:
    spans = tmp_path / "spans.json"
    report = run_traced(WORKLOADS[name], 0, 0.01, tmp_path, full=False, spans_path=spans)
    assert report.correct, report.problems
    emitted = {metric: unit for metric, (_, unit) in report.metrics.items()}
    assert emitted == _units("per_layer")
    value = {metric: v for metric, (v, _) in report.metrics.items()}
    if WORKLOADS[name].policy != "proposed":
        assert value["core.checkpoint_s"] == value["core.after_io_s"] == 0
        assert value["core.determinations"] == 0
    if WORKLOADS[name].fault_kind is None:
        assert value["faults.on_time_s"] == value["faults.delay_sim_s"] == 0
        assert value["faults.delayed_ios"] == value["faults.denied_ios"] == 0
    document = json.loads(spans.read_text(encoding="utf-8"))
    assert any(span["name"] == "engine.replay" for span in document["spans"])


def test_corrupted_cache_answer_counts_as_failed(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    original = ExperimentEngine._cache_load

    def corrupted(self: ExperimentEngine, key: str):  # type: ignore[no-untyped-def]
        result = original(self, key)
        if result is None:
            return None
        return dataclasses.replace(result, enclosure_watts=result.enclosure_watts + 1.0)

    monkeypatch.setattr(ExperimentEngine, "_cache_load", corrupted)
    report = run_end_to_end(WORKLOADS["dss-scan"], 0, 0.01, tmp_path, full=False)
    assert not report.correct
    assert report.failed == 1
    assert 0 < report.failed_frac < 1
    assert report.problems == ["cached result differs from the cold result"]


def test_without_simulator_sources_the_command_fails_quietly(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dss-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


class _Node:
    def leaf(self, value: int) -> int:
        return value

    def branch(self, value: int) -> int:
        return self.leaf(value) + self.leaf(value)


def test_self_times_add_up_and_probes_are_restored() -> None:
    original = vars(_Node)["leaf"]
    tracer = Tracer(group_roots=("branch",))
    probes = [Probe(_Node, "branch", "branch"), Probe(_Node, "leaf", "leaf")]
    with installed(tracer, probes):
        for _ in range(100):
            assert _Node().branch(2) == 4
        totals = tracer.take()
    assert vars(_Node)["leaf"] is original
    assert totals.calls == {"branch": 100, "leaf": 200}
    raw_sum = totals.raw_self["branch"] + totals.raw_self["leaf"]
    assert raw_sum == pytest.approx(totals.raw_wall["branch"], rel=1e-9)
    assert totals.group_raw_self["branch"] == pytest.approx(raw_sum, rel=1e-9)
    assert len(totals.spans) == 300
    parents = {span[0]: span[2] for span in totals.spans}
    assert all(parents[span[1]] == "branch" for span in totals.spans if span[2] == "leaf")


def test_calibration_measures_a_positive_cost() -> None:
    tracer = Tracer()
    tracer.calibrate(calls=2000, trials=3)
    inside, outside = tracer.overhead
    assert 0 < inside < 1e-4
    assert 0 < outside < 1e-4


def test_host_factor_is_one_at_the_reference_probe_time() -> None:
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.host_factor(reference, reference) == 1.0
    assert hostspeed.host_factor(reference, 3 * reference) == 2.0
    assert hostspeed.probe_seconds() > 0
