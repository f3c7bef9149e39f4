"""Host speed: a fixed pure-Python workload timed beside the program.

The shared host this benchmark runs on changes speed by 1.5-2x for
stretches of seconds to minutes, and a slow stretch can cover a whole
run (see ``README.md``, "Noise on this host").  No statistic over one
run's wall times removes that.  So every timed span is bracketed by a
*probe*: :func:`probe_seconds` runs a fixed mix of the kinds of work the
simulator does and returns its wall time.  Interpreted code (method
calls, attribute and dict access, ``OrderedDict`` moves, ``heapq``,
float arithmetic, small objects) runs once over a working set that
stays in the CPU caches and once over one that does not; C library
loops (``sorted``, ``sum``, ``json.dumps``) run over a fixed list.  The
kinds slow down by different amounts in a slow stretch, so the probe
holds all three.  A span's *host factor* is the mean of the probes
around it divided by :data:`REFERENCE_PROBE_S`, the probe's time at full
speed; dividing the span by that factor gives its time at full speed.

The probe is the benchmark's own code and calls nothing in ``repro``,
so a change to the program moves the spans, never the probes.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import OrderedDict
from time import perf_counter

#: Loop iterations over each working set.
PROBE_ITERATIONS = 20_000
#: Distinct keys of the small and the large working set.
PROBE_KEYS = (2_003, 200_003)
_RANDOM = random.Random(0)
#: The list the C library loops run over: 100,000 seeded random floats.
PROBE_VALUES = [_RANDOM.random() for _ in range(100_000)]
#: Wall time of one probe at full host speed: the fastest of 300 probes
#: on the 2-vCPU host the benchmark was written on (Python 3.11.7),
#: rounded down.  Their median was 0.157 s.
REFERENCE_PROBE_S = 0.11


class _Item:
    __slots__ = ("key", "size", "heat")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.heat = 0.0

    def touch(self, now: float) -> float:
        self.heat = self.heat * 0.5 + now
        return self.heat


class _Books:
    def __init__(self) -> None:
        self.items: dict[int, _Item] = {}
        self.lru: OrderedDict[int, int] = OrderedDict()
        self.queue: list[tuple[float, int]] = []
        self.total = 0.0

    def submit(self, key: int, now: float) -> None:
        item = self.items.get(key)
        if item is None:
            item = self.items[key] = _Item(key, key % 64 + 1)
        if key in self.lru:
            self.lru.move_to_end(key)
        else:
            self.lru[key] = item.size
            if len(self.lru) > 512:
                self.lru.popitem(last=False)
        heapq.heappush(self.queue, (now + item.size * 1e-3, key))
        while self.queue and self.queue[0][0] <= now:
            heapq.heappop(self.queue)
        self.total += math.sqrt(item.touch(now)) * 1e-6


def probe_seconds() -> float:
    """Wall time of one fixed probe workload."""
    start = perf_counter()
    for keys in PROBE_KEYS:
        books = _Books()
        for i in range(PROBE_ITERATIONS):
            books.submit((i * 7919) % keys, i * 1e-3)
    ordered = sorted(PROBE_VALUES)
    sum(ordered)
    json.dumps(ordered[: len(ordered) // 2])
    return perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """How much slower than full speed the host ran around one span."""
    return (before + after) / 2.0 / REFERENCE_PROBE_S
