"""In-memory span tracer and the probes that attach it to each layer.

The tracer lives entirely in the benchmark: it wraps public functions
and methods of the ``repro`` subpackages from the outside (class
attributes and module globals, patched for the duration of a
``with installed(...)`` block and restored afterwards), so nothing under
``src/`` knows it is being measured.

Every wrapped call is one span with a name, a start, an end and the
span that was open when it began (its parent).  Self time is a span's
duration minus the part covered by its direct children, computed on
the fly from a stack.  Totals per span name are always kept; the raw
spans are kept up to :data:`SPAN_KEEP` per name, because the hottest
probe (one span per cache page) fires hundreds of thousands of times
per replay.

A wrapper costs about a microsecond per call, part of it inside the
span and part in its parent.  :meth:`Tracer.calibrate` measures both
parts on a no-op, and :meth:`Tracer.take` subtracts them, so the
reported wall and self times estimate the untraced ones.  The raw sums
are kept beside them for the consistency check.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Raw spans kept per name for the written span file; totals are exact
#: regardless.
SPAN_KEEP = 2000

# Per-name accumulator slots.
_CALLS, _WALL, _SELF, _ACTIVE, _KEPT, _CHILDREN, _DESCENDANTS, _OUTER = range(8)


@dataclass
class TraceTotals:
    """What one traced phase measured, aggregated per span name.

    ``wall`` and ``self_time`` are corrected for the tracer's own cost;
    ``raw_wall`` and ``raw_self`` are as measured.  A span nested in a
    span of the same name adds to self time but not again to wall time.
    """

    calls: dict[str, int] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    raw_wall: dict[str, float] = field(default_factory=dict)
    raw_self: dict[str, float] = field(default_factory=dict)
    #: Self time of every span under a group root (see
    #: :attr:`Tracer.group_roots`), the root included: corrected and raw.
    group_self: dict[str, float] = field(default_factory=dict)
    group_raw_self: dict[str, float] = field(default_factory=dict)
    #: Plain call counters (probes that record no span).
    counts: dict[str, int] = field(default_factory=dict)
    #: Receivers captured by ``capture`` probes (e.g. the replayer).
    captured: dict[str, Any] = field(default_factory=dict)
    #: Kept raw spans: ``(id, parent_id, name, start, end)``; parent 0 is none.
    spans: list[tuple[int, int, str, float, float]] = field(default_factory=list)

    def seconds(self, name: str) -> float:
        """Corrected inclusive wall time of ``name`` (0.0 if it never ran)."""
        return self.wall.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        """Corrected self time of ``name`` (0.0 if it never ran)."""
        return self.self_time.get(name, 0.0)


class Tracer:
    """Collects spans from the wrappers it hands out.

    ``group_roots`` names spans whose subtree self times are summed
    separately, so a caller can check that the self times under a root
    add up to the root's duration.
    """

    def __init__(self, group_roots: tuple[str, ...] = ()) -> None:
        self.group_roots = frozenset(group_roots)
        self.epoch = perf_counter()
        #: Seconds per span charged inside the span and to its parent.
        self.overhead = (0.0, 0.0)
        self._calibrated = False
        self._stack: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._stats: dict[str, list[Any]] = {}
        self._groups: dict[str, list[Any]] = {}
        self._spans: list[tuple[int, int, str, float, float]] = []
        self._counts: dict[str, int] = {}
        self._captured: dict[str, Any] = {}

    def _stat(self, name: str) -> list[Any]:
        return self._stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0, 0, 0])

    def calibrate(self, calls: int = 10000, trials: int = 5) -> None:
        """Measure this tracer's per-span cost on a no-op.

        The no-op takes two arguments, like the hottest probe
        (:meth:`StorageCache.read_hit`).  :attr:`overhead` keeps the
        lowest cost seen over every call, which is the cost at full host
        speed: on a shared host the speed changes from one second to the
        next, and subtracting a cost measured in a slow second would
        drive self times below zero.
        """
        probe = Tracer()

        def noop(first: object, second: object) -> None:
            return None

        child = probe.wrap_span("child", noop)

        def traced_loop() -> None:
            for index in range(calls):
                child(probe, index)

        parent = probe.wrap_span("parent", traced_loop)
        inside, outside = [], []
        for _ in range(trials):
            start = perf_counter()
            for index in range(calls):
                noop(probe, index)
            plain = perf_counter() - start
            parent()
            totals = probe.take()
            inside.append(totals.raw_self["child"] / calls)
            outside.append((totals.raw_self["parent"] - plain) / calls)
        if self._calibrated:
            inside.append(self.overhead[0])
            outside.append(self.overhead[1])
        self.overhead = (min(inside), min(outside))
        self._calibrated = True

    def take(self) -> TraceTotals:
        """Return the totals so far and start a fresh set."""
        if self._stack:
            raise RuntimeError("cannot take totals while a span is open")
        inside, outside = self.overhead
        totals = TraceTotals()
        for name, stat in self._stats.items():
            if not stat[_CALLS]:
                continue
            totals.calls[name] = stat[_CALLS]
            totals.raw_wall[name] = stat[_WALL]
            totals.raw_self[name] = stat[_SELF]
            totals.wall[name] = (
                stat[_WALL]
                - stat[_OUTER] * inside
                - stat[_DESCENDANTS] * (inside + outside)
            )
            totals.self_time[name] = (
                stat[_SELF] - stat[_CALLS] * inside - stat[_CHILDREN] * outside
            )
            stat[:] = [0, 0.0, 0.0, 0, 0, 0, 0, 0]
        for root, (raw, spans, children) in self._groups.items():
            if spans:
                totals.group_raw_self[root] = raw
                totals.group_self[root] = raw - spans * inside - children * outside
            self._groups[root][:] = [0.0, 0, 0]
        totals.spans = list(self._spans)
        self._spans.clear()
        totals.counts = dict(self._counts)
        self._counts.clear()
        totals.captured = dict(self._captured)
        self._captured.clear()
        return totals

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        stat = self._stat(name)
        stack = self._stack
        push, pop = stack.append, stack.pop
        ids = self._ids
        keep_span = self._spans.append
        root = (
            self._groups.setdefault(name, [0.0, 0, 0])
            if name in self.group_roots
            else None
        )
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent = stack[-1]
                parent_id = parent[1]
                group = root if root is not None else parent[3]
            else:
                parent = None
                parent_id = 0
                group = root
            # frame: child seconds, id, parent id, group, descendants, children
            frame = [0.0, next(ids), parent_id, group, 0, 0]
            stat[_ACTIVE] += 1
            push(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                    parent[4] += frame[4] + 1
                    parent[5] += 1
                stat[_CALLS] += 1
                stat[_SELF] += own
                stat[_CHILDREN] += frame[5]
                stat[_ACTIVE] -= 1
                if not stat[_ACTIVE]:
                    stat[_WALL] += duration
                    stat[_DESCENDANTS] += frame[4]
                    stat[_OUTER] += 1
                if group is not None:
                    group[0] += own
                    group[1] += 1
                    group[2] += frame[5]
                if stat[_KEPT] < SPAN_KEEP:
                    stat[_KEPT] += 1
                    keep_span((frame[1], parent_id, name, start, end))

        return traced

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` as one span (benchmark-side calls)."""
        return self.wrap_span(name, fn)(*args)

    def wrap_count(self, names: tuple[str, ...], fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call counted under each of ``names``."""
        counts = self._counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            for name in names:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def wrap_capture(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as a span that also keeps its first argument (receiver)."""
        traced = self.wrap_span(name, fn)
        captured = self._captured

        def capturing(*args: Any, **kwargs: Any) -> Any:
            if args:
                captured[name] = args[0]
            return traced(*args, **kwargs)

        return capturing

    def write(self, path: Path, totals: TraceTotals) -> None:
        """Write ``totals`` and its kept spans as JSON (times from the epoch)."""
        document = {
            "kept_per_name": SPAN_KEEP,
            "overhead_inside_s": self.overhead[0],
            "overhead_parent_s": self.overhead[1],
            "calls": totals.calls,
            "wall_s": totals.wall,
            "self_s": totals.self_time,
            "raw_wall_s": totals.raw_wall,
            "raw_self_s": totals.raw_self,
            "spans": [
                {
                    "id": span_id,
                    "parent": parent or None,
                    "name": name,
                    "start": start - self.epoch,
                    "end": end - self.epoch,
                }
                for span_id, parent, name, start, end in totals.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attribute`` reported as ``name``.

    ``kind`` is ``"span"`` (timed), ``"count"`` (counted under every
    name in ``name``, comma-separated) or ``"capture"`` (timed, and the
    receiver kept for reading its books afterwards).
    """

    owner: Any
    attribute: str
    name: str
    kind: str = "span"


@contextlib.contextmanager
def installed(tracer: Tracer, probes: list[Probe]) -> Iterator[Tracer]:
    """Patch every probe onto its owner; restore the originals on exit."""
    saved: list[tuple[Any, str, Any, bool]] = []
    try:
        for probe in probes:
            owner, attribute = probe.owner, probe.attribute
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            if probe.kind == "count":
                wrapped = tracer.wrap_count(tuple(probe.name.split(",")), original)
            elif probe.kind == "capture":
                wrapped = tracer.wrap_capture(probe.name, original)
            else:
                wrapped = tracer.wrap_span(probe.name, original)
            setattr(owner, attribute, wrapped)
            saved.append((owner, attribute, original, own))
        yield tracer
    finally:
        for owner, attribute, original, own in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
