"""Hot/cold disk-enclosure determination (paper §IV-C).

Hot enclosures host the P3 data items (frequently accessed, no long
intervals); everything else becomes a cold enclosure eligible for
power-off.  The split follows the paper's three steps:

1. ``I_max`` — the peak aggregate IOPS of all P3 items over time buckets;
2. ``N_hot = max(ceil(I_max / O), ceil(Σ size_P3 / S))`` — enough hot
   enclosures to serve the P3 load *and* store the P3 bytes;
3. choose the ``N_hot`` enclosures holding the most P3 bytes (descending)
   so the least P3 data needs to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ValidationError
from repro.core.patterns import P3_CODE, ProfileTable


@dataclass(frozen=True)
class HotColdSplit:
    """Result of the hot/cold determination."""

    hot: tuple[str, ...]
    cold: tuple[str, ...]
    i_max: float
    n_hot: int

    def is_cold(self, enclosure: str) -> bool:
        """Whether the enclosure is in the cold (power-managed) tier."""
        return enclosure in self.cold


def _p3_totals(profiles: ProfileTable) -> tuple[list[int], int]:
    """Per-bucket P3 I/O totals and P3 bytes, from the count columns.

    Both Step 1 (``I_max``) and Step 2 (the byte bound on ``N_hot``)
    reduce over the same P3 rows.  With no P3 item there are no totals.
    """
    p3 = profiles.pattern_codes == P3_CODE
    if not p3.any():
        return [], 0
    totals = profiles.bucket_counts[p3].sum(axis=0).tolist()
    return totals, int(profiles.size_bytes[p3].sum())


def _peak_from_totals(totals: list[int], bucket_seconds: float) -> float:
    """``I_max``: peak over time of the summed IOPS of all P3 items.

    The totals are the profiles' aligned bucket counts, so simultaneous
    bursts of different items add up in the bucket where they coincide
    — the paper's ``max_t Σ_i I_it``.  The peak is taken as the 95th
    percentile of the bucket sums rather than the strict maximum: at
    simulation scale each bucket holds few I/Os, and a single noisy
    bucket would inflate ``N_hot`` and churn the hot set window over
    window.
    """
    if not totals:
        return 0.0
    values = sorted(totals)
    index = max(0, math.ceil(len(values) * 95.0 / 100.0) - 1)
    return values[index] / bucket_seconds


def required_hot_count(
    profiles: ProfileTable,
    max_enclosure_iops: float,
    enclosure_size_bytes: int,
    bucket_seconds: float,
) -> tuple[int, float]:
    """``(N_hot, I_max)`` per the paper's Step 1 and Step 2."""
    if max_enclosure_iops <= 0:
        raise ValidationError("max_enclosure_iops must be positive")
    if enclosure_size_bytes <= 0:
        raise ValidationError("enclosure_size_bytes must be positive")
    if bucket_seconds <= 0:
        raise ValidationError("bucket_seconds must be positive")
    totals, p3_bytes = _p3_totals(profiles)
    i_max = _peak_from_totals(totals, bucket_seconds)
    n_for_iops = math.ceil(i_max / max_enclosure_iops)
    n_for_size = math.ceil(p3_bytes / enclosure_size_bytes)
    return max(n_for_iops, n_for_size), i_max


def choose_hot_cold(
    profiles: ProfileTable,
    enclosure_names: Sequence[str],
    n_hot: int,
    i_max: float,
    preferred_hot: set[str] | None = None,
    stickiness: float = 1.25,
) -> HotColdSplit:
    """Step 3: pick the ``n_hot`` enclosures richest in P3 bytes.

    Ties break on enclosure name for determinism.  ``n_hot`` beyond the
    enclosure count selects everything as hot (paper: "If N_hot is larger
    than the number of disk enclosures, all ... are selected as hot").

    ``preferred_hot`` applies hysteresis: enclosures that are already
    hot get their P3 bytes weighted by ``stickiness``, so borderline
    windows do not flip the hot set back and forth — the paper's method
    "intends to keep the initial data placement in order to avoid data
    migration overhead" (§IV-A), and set churn would also thrash the
    power-off enablement of the cold enclosures.
    """
    if n_hot < 0:
        raise ValidationError("n_hot must be non-negative")
    if stickiness < 1.0:
        raise ValidationError("stickiness must be >= 1")
    preferred = preferred_hot or set()
    # A float left fold in item order, as the ranking has always summed.
    p3 = profiles.pattern_codes == P3_CODE
    names = profiles.enclosure_names
    p3_bytes: dict[str, float] = {}
    for code, size in zip(
        profiles.enclosure_codes[p3].tolist(),
        profiles.size_bytes[p3].tolist(),
    ):
        name = names[code]
        p3_bytes[name] = p3_bytes.get(name, 0.0) + size
    ranked = sorted(
        enclosure_names,
        key=lambda name: (
            -p3_bytes.get(name, 0.0)
            * (stickiness if name in preferred else 1.0),
            name not in preferred,
            name,
        ),
    )
    n_hot = min(n_hot, len(ranked))
    return HotColdSplit(
        hot=tuple(sorted(ranked[:n_hot])),
        cold=tuple(sorted(ranked[n_hot:])),
        i_max=i_max,
        n_hot=n_hot,
    )
