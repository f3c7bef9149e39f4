"""Lossless JSON serialization for :class:`ExperimentResult`.

The parallel experiment engine moves results across process boundaries
and persists them in its on-disk cache, so every measured quantity must
round-trip *exactly*: ``result_from_json(result_to_json(r)) == r`` for
any result the runner can produce.  Floats survive because
:func:`json.dumps` emits ``repr``-shortest representations, which Python
parses back to the identical IEEE-754 value; everything else in a result
is ints, strings, and containers of those.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Mapping

from repro.actions.records import ActionRecord
from repro.analysis.intervals import IntervalCurve
from repro.analysis.metrics import WindowResponse
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult
from repro.faults.report import AvailabilityReport
from repro.monitoring.application import ResponseStats
from repro.storage.meter import PowerReading
from repro.trace.replay import ReplayResult

#: Bump when the serialized layout changes; stale cache entries with a
#: different format are treated as misses, never mis-parsed.
#: Format 2 added the per-run :class:`AvailabilityReport`; format 3 the
#: :mod:`repro.actions` log.
RESULT_FORMAT = 3


def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Flatten a result (and every nested dataclass) to plain JSON types.

    The replay's action log rides along explicitly: it is a non-field
    attribute on :class:`~repro.trace.replay.ReplayResult` (invisible to
    ``asdict`` by design), yet must survive the parallel engine's
    process boundary and cache losslessly.
    """
    data = asdict(result)
    data["actions"] = [record.to_dict() for record in result.replay.actions]
    data["format"] = RESULT_FORMAT
    return data


def result_from_dict(data: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output.

    Raises :class:`~repro.errors.ExperimentError` when the payload's
    format marker is missing or from a different serializer version,
    and for any other malformed payload (not a JSON object, a missing
    key, a value of the wrong shape), so a damaged cache entry can
    never escape as a bare ``KeyError`` or ``AttributeError``.
    """
    try:
        if data.get("format") != RESULT_FORMAT:
            raise ExperimentError(
                f"unsupported result format {data.get('format')!r}; "
                f"this serializer reads format {RESULT_FORMAT}"
            )
        replay = data["replay"]
        curve = data["interval_curve"]
        availability = replay["availability"]
        replay_result = ReplayResult(
            policy_name=replay["policy_name"],
            duration_seconds=replay["duration_seconds"],
            io_count=replay["io_count"],
            response=ResponseStats(**replay["response"]),
            power=PowerReading(**replay["power"]),
            migrated_bytes=replay["migrated_bytes"],
            migration_count=replay["migration_count"],
            determinations=replay["determinations"],
            cache_hit_ratio=replay["cache_hit_ratio"],
            spin_up_count=replay["spin_up_count"],
            spin_down_count=replay["spin_down_count"],
            availability=AvailabilityReport(
                **{
                    **availability,
                    "at_risk_series": tuple(
                        tuple(point) for point in availability["at_risk_series"]
                    ),
                }
            ),
        )
        object.__setattr__(
            replay_result,
            "actions",
            tuple(ActionRecord.from_dict(record) for record in data["actions"]),
        )
        return ExperimentResult(
            workload_name=data["workload_name"],
            policy_name=data["policy_name"],
            replay=replay_result,
            interval_curve=IntervalCurve(
                lengths=tuple(curve["lengths"]),
                cumulative=tuple(curve["cumulative"]),
            ),
            window_responses=[
                WindowResponse(**window) for window in data["window_responses"]
            ],
            enclosure_watts=data["enclosure_watts"],
            controller_watts=data["controller_watts"],
            audit_checks=data["audit_checks"],
        )
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ExperimentError(
            f"malformed result payload: {type(err).__name__}: {err}"
        ) from err


def result_to_json(result: ExperimentResult) -> str:
    """Serialize a result to a deterministic JSON string."""
    return json.dumps(result_to_dict(result), sort_keys=True)


def result_from_json(text: str) -> ExperimentResult:
    """Parse a result serialized by :func:`result_to_json`."""
    return result_from_dict(json.loads(text))
