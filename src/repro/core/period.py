"""Adaptive monitoring-period calculation (paper §IV-H).

``I_new = average(I_cur) × α`` where ``I_cur`` are all Long Intervals
measured in the current period and α > 1 (Table II: 1.2).  The α factor
grows the period when intervals are longer than the period itself, so
the management function stops waking up (and burning CPU) when nothing
changes — the paper credits this for the proposed method's 5 placement
determinations versus PDC's 11 on the File Server run.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ValidationError
from repro.core.patterns import ProfileTable


def next_monitoring_period(
    long_interval_lengths: Iterable[float],
    current_period: float,
    alpha: float,
    max_period: float,
    min_period: float = 0.0,
) -> float:
    """Length of the next monitoring period.

    With no long intervals observed there is no signal; the current
    period is kept.  The result is clamped to ``[min_period, max_period]``.
    The floor matters because observed Long Intervals are truncated by
    the window itself — ``avg(I_cur)`` can never exceed the window
    length, so without a floor a burst of short intervals would spiral
    the period (and the management CPU cost the paper §IV-H wants to
    avoid) downward.
    """
    if alpha <= 1.0:
        raise ValidationError("alpha must be > 1")
    if current_period <= 0:
        raise ValidationError("current_period must be positive")
    if max_period <= 0:
        raise ValidationError("max_period must be positive")
    if min_period < 0 or min_period > max_period:
        raise ValidationError("need 0 <= min_period <= max_period")
    lengths = list(long_interval_lengths)
    if not lengths:
        return max(min_period, min(current_period, max_period))
    average = sum(lengths) / len(lengths)
    return max(min_period, min(average * alpha, max_period))


def collect_long_intervals(profiles: ProfileTable) -> list[float]:
    """All Long-Interval lengths, in item order and then time order.

    :func:`next_monitoring_period` sums them left to right.
    """
    lengths: list[float] = (
        profiles.interval_ends - profiles.interval_starts
    ).tolist()
    return lengths
