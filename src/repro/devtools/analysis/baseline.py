"""Committed-baseline support for the analyzer.

A baseline file grandfathers known findings so that ``ecostor check``
can gate CI on *new* findings only: every entry is the line-independent
identity of one accepted finding (check id, file path, enclosing
definition, message) plus a count, so a finding survives unrelated line
drift but re-fires the moment its code is touched in a way that changes
the message or multiplies occurrences.

Workflow::

    ecostor check src/repro                         # fails on new findings
    ecostor check src/repro --write-baseline        # accept current state
    git add analysis-baseline.json                  # grandfather them

Entries for findings that no longer occur are dropped on the next
``--write-baseline``, so the file only shrinks as debt is paid down.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ValidationError
from repro.devtools.analysis.framework import Finding

__all__ = [
    "BASELINE_FORMAT",
    "DEFAULT_BASELINE",
    "load_baseline",
    "partition_findings",
    "write_baseline",
]

#: Version tag inside the baseline document.
BASELINE_FORMAT = 1

#: Default baseline filename, looked up in the working directory.
DEFAULT_BASELINE = "analysis-baseline.json"


def _normalize(path_text: str) -> str:
    """Absolute form of a finding/entry path for identity comparison.

    The committed baseline stores paths relative to the repository root
    (where ``ecostor check`` is run from), while callers may hand the
    analyzer absolute paths; resolving both sides against the working
    directory makes the two spellings meet.
    """
    try:
        return str(Path(path_text).resolve())
    except OSError:  # pragma: no cover - unresolvable path
        return str(Path(path_text))


def _key(entry: dict[str, str]) -> tuple[str, str, str, str]:
    return (
        entry["check"],
        _normalize(entry["path"]),
        entry["context"],
        entry["message"],
    )


def load_baseline(path: str | Path) -> dict[tuple[str, str, str, str], int]:
    """Load a baseline file into an identity → allowed-count table."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(document, dict) or "entries" not in document:
        raise ValidationError(
            f"baseline {path} is not an analyzer baseline document"
        )
    table: dict[tuple[str, str, str, str], int] = {}
    for entry in document["entries"]:
        try:
            table[_key(entry)] = int(entry.get("count", 1))
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"baseline {path} has a malformed entry: {entry!r}"
            ) from exc
    return table


def partition_findings(
    findings: list[Finding],
    baseline: dict[tuple[str, str, str, str], int] | None,
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (new, baselined) against the allowed counts."""
    if not baseline:
        return list(findings), []
    remaining = dict(baseline)
    new: list[Finding] = []
    grandfathered: list[Finding] = []
    for finding in findings:
        key = _key(finding.baseline_key())
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered


def write_baseline(findings: list[Finding], path: str | Path) -> int:
    """Write all current findings as the new baseline; returns entry count.

    Entry paths are stored as the analyzer reported them, so running
    ``ecostor check src/repro --write-baseline`` from the repository
    root keeps the committed document free of absolute checkout paths.
    """
    counts: dict[tuple[str, str, str, str], int] = {}
    reported: dict[tuple[str, str, str, str], str] = {}
    for finding in findings:
        key = _key(finding.baseline_key())
        counts[key] = counts.get(key, 0) + 1
        reported.setdefault(key, finding.path)
    entries = [
        {
            "check": check,
            "path": reported[(check, file_path, context, message)],
            "context": context,
            "message": message,
            "count": count,
        }
        for (check, file_path, context, message), count in sorted(counts.items())
    ]
    document = {
        "format": BASELINE_FORMAT,
        "tool": "ecostor check",
        "entries": entries,
    }
    Path(path).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    return len(entries)
