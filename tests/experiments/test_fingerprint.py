"""The experiment cache key is a stable function of the trace's content.

A cache entry written by one process must be found by every other: a
sweep's workers, a later ``ecostor run``, a CI job on a warm cache.  So
the workload fingerprint may depend on nothing but the trace and its
layout — not on the interpreter's string-hash seed, and not on whether
the trace was generated as columns or packed from record objects.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.parallel import WorkloadSpec, workload_fingerprint
from repro.experiments.testbed import WORKLOAD_NAMES, build_workload
from repro.workloads.items import Workload

_PRINT_FINGERPRINTS = (
    "from repro.experiments.parallel import WorkloadSpec, workload_fingerprint\n"
    f"for name in {list(WORKLOAD_NAMES)!r}:\n"
    "    print(name, workload_fingerprint(WorkloadSpec(name)))\n"
)


def _fingerprints_in_subprocess(hash_seed: str) -> str:
    source = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _PRINT_FINGERPRINTS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_fingerprints_do_not_depend_on_the_hash_seed():
    first = _fingerprints_in_subprocess("1")
    assert len(first.splitlines()) == len(WORKLOAD_NAMES)
    assert first == _fingerprints_in_subprocess("2")
    assert first.split()[1] == workload_fingerprint(WorkloadSpec(WORKLOAD_NAMES[0]))


def _image(workload: Workload) -> bytes:
    chunks: list[bytes] = []
    workload.columnar().write_to(lambda chunk: chunks.append(bytes(chunk)))
    return b"".join(chunks)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generated_and_repacked_traces_have_one_image(name):
    generated = build_workload(name, full=False)
    repacked = Workload(
        name=generated.name,
        duration=generated.duration,
        enclosure_count=generated.enclosure_count,
        items=generated.items,
        records=list(generated.records),  # type: ignore[arg-type]
        volumes=generated.volumes,
        phases=generated.phases,
    )
    assert _image(repacked) == _image(generated)
