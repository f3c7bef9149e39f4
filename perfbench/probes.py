"""Where the traced run attaches to each layer (``repro`` subpackage).

Span names are ``<layer>.<what>``; the harness reports each as
``<name>_s`` (inclusive wall time) and ``<name>_self_s`` (self time).
The replay root ``engine.replay`` reports its self time as
``engine.self_s``: the kernel loop plus everything inside
:meth:`TraceReplayer.run` that no other probe claims.
"""

from __future__ import annotations

from repro.actions.executor import ActionExecutor
from repro.baselines.base import PowerPolicy
from repro.core.manager import EnergyEfficientPolicy
from repro.devtools.audit import InvariantAuditor
from repro.engine.kernel import SimulationKernel
from repro.experiments import parallel, runner
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import STANDARD_POLICIES
from repro.monitoring.application import ApplicationMonitor
from repro.monitoring.storage import StorageMonitor
from repro.storage.cache import StorageCache
from repro.storage.controller import StorageController
from repro.storage.enclosure import DiskEnclosure
from repro.trace.replay import TraceReplayer
from repro.workloads.items import Workload

from perfbench.tracer import Probe

#: Root span of one replay; self times under it must add up to it.
REPLAY = "engine.replay"

#: The one probe of the untraced run: the replay's wall time, nothing else.
REPLAY_ONLY = [Probe(TraceReplayer, "run", REPLAY, "capture")]

#: Probes active while the workload is built and fingerprinted.
SETUP = [Probe(Workload, "columnar", "trace.pack")]

_KERNEL_EVENTS = (
    "fire_timeline_sample",
    "fire_fault_bookkeeping",
    "fire_flush_deadline",
    "fire_action_apply",
)


def _baseline_probes() -> list[Probe]:
    """Per-I/O and checkpoint hooks of every policy class in ``repro.baselines``."""
    classes = {PowerPolicy, *STANDARD_POLICIES.values()}
    probes = []
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if not cls.__module__.startswith("repro.baselines"):
            continue
        for attribute, name in (
            ("on_checkpoint", "baselines.checkpoint"),
            ("after_io", "baselines.after_io"),
        ):
            if attribute in vars(cls):
                probes.append(Probe(cls, attribute, name))
    return probes


def layers(faulted: bool) -> list[Probe]:
    """Probes of the traced cell, one layer per block.

    Fault bookkeeping (:meth:`StorageController.on_time`) is probed only
    on a faulted cell: without a fault clock it returns at its first
    line, and those calls are not fault work.
    """
    return [
        # experiments: the engine path around the replay
        Probe(ExperimentEngine, "run_cells", "experiments.run_cells"),
        Probe(runner, "interval_curve", "experiments.assemble"),
        Probe(runner, "window_read_responses", "experiments.assemble"),
        Probe(parallel, "result_to_dict", "experiments.serialize"),
        Probe(ExperimentEngine, "_cache_store", "experiments.cache_store"),
        Probe(ExperimentEngine, "_cache_load", "experiments.cache_load"),
        # engine: the replay and the events its kernel fires
        *REPLAY_ONLY,
        *[Probe(SimulationKernel, event, "engine.events", "count") for event in _KERNEL_EVENTS],
        Probe(
            SimulationKernel,
            "fire_policy_checkpoint",
            "engine.events,engine.checkpoints",
            "count",
        ),
        # storage: controller -> cache -> enclosure
        Probe(StorageController, "submit", "storage.submit"),
        Probe(StorageCache, "read_hit", "storage.cache"),
        Probe(DiskEnclosure, "submit_one", "storage.enclosure"),
        Probe(DiskEnclosure, "submit", "storage.enclosure"),
        Probe(DiskEnclosure, "occupy", "storage.enclosure"),
        Probe(DiskEnclosure, "background_transfer", "storage.enclosure"),
        # monitoring
        Probe(ApplicationMonitor, "record", "monitoring.app_record"),
        Probe(StorageMonitor, "on_physical", "monitoring.physical"),
        Probe(StorageMonitor, "on_physical_fast", "monitoring.physical"),
        Probe(StorageMonitor, "window_stats", "monitoring.window"),
        # core: the paper's proposed method
        Probe(EnergyEfficientPolicy, "on_checkpoint", "core.checkpoint"),
        Probe(EnergyEfficientPolicy, "after_io", "core.after_io"),
        # baselines
        *_baseline_probes(),
        # actions
        Probe(ActionExecutor, "apply", "actions.apply"),
        # faults
        *([Probe(StorageController, "on_time", "faults.on_time")] if faulted else []),
        # audit (fires only in the audited pass)
        Probe(InvariantAuditor, "check", "audit.check"),
    ]

#: Span names reported as ``<name>_s`` and ``<name>_self_s``.
TIMED = (
    "storage.submit",
    "storage.cache",
    "storage.enclosure",
    "monitoring.app_record",
    "monitoring.physical",
    "monitoring.window",
    "core.checkpoint",
    "core.after_io",
    "baselines.checkpoint",
    "baselines.after_io",
    "actions.apply",
    "faults.on_time",
    "experiments.assemble",
    "experiments.serialize",
    "experiments.cache_store",
)

#: Spans of the set-up phase, reported the same way.
SETUP_TIMED = ("workloads.build", "trace.pack", "experiments.fingerprint")
