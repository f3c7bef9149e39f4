"""Pass 2 scaffolding: checkers, findings, suppressions, reports.

A :class:`Checker` runs over one indexed module at a time but sees the
whole :class:`~repro.devtools.analysis.symbols.Program`, so its checks
can follow calls and attribute types across module boundaries.  Each
problem it yields is a :class:`Finding` carrying a stable *check id*
(``R1`` …, ``D101`` …), the source location, and the enclosing
definition's qualified name — the latter is what the committed baseline
keys on, so baselined findings survive unrelated line drift.

A finding is silenced by a trailing comment on its line::

    started = time.perf_counter()  # check: ignore[D203]
    started = time.perf_counter()  # check: ignore[wall-clock]
    started = time.perf_counter()  # check: ignore        (all checks)

Suppressions accept check ids and names, comma-separated.  A file that
cannot be decoded or parsed is reported as ``E0[parse-error]``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ValidationError
from repro.devtools.analysis.symbols import ModuleIndex, Program

__all__ = [
    "AnalysisReport",
    "CHECKERS",
    "Checker",
    "Finding",
    "register_checker",
    "resolve_checkers",
    "run_checkers",
]

_SUPPRESSION = re.compile(
    r"#\s*check:\s*ignore(?:\[(?P<checks>[^\]]*)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One analysis finding at a source location."""

    check_id: str
    check_name: str
    path: str
    line: int
    col: int
    #: Qualified name of the enclosing function/class ("" at module level).
    context: str
    message: str

    def render(self) -> str:
        """Human-readable one-liner, ``path:line:col: D101[...] …``."""
        where = f" [{self.context}]" if self.context else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.check_id}[{self.check_name}]{where} {self.message}"
        )

    def baseline_key(self) -> dict[str, str]:
        """Line-independent identity used by the committed baseline."""
        return {
            "check": self.check_id,
            "path": self.path,
            "context": self.context,
            "message": self.message,
        }


class Checker:
    """Base class: one registered whole-program checker.

    ``check_ids`` maps every id the checker may emit to a short
    kebab-case name; both address the checker in ``--select`` and in
    suppression comments.
    """

    #: Check id → name for every finding kind this checker emits.
    check_ids: dict[str, str] = {}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Yield every finding for ``module``, resolving through ``program``."""
        raise NotImplementedError

    def finding(
        self,
        check_id: str,
        module: ModuleIndex,
        node: object,
        context: str,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST ``node``."""
        return Finding(
            check_id=check_id,
            check_name=self.check_ids[check_id],
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            context=context,
            message=message,
        )


#: Registry of all checkers, in registration order.
CHECKERS: list[Checker] = []


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator: instantiate and register a checker."""
    instance = cls()
    for existing in CHECKERS:
        overlap = set(existing.check_ids) & set(instance.check_ids)
        if overlap:
            raise ValidationError(
                f"duplicate check ids {sorted(overlap)} in {cls.__name__}"
            )
    CHECKERS.append(instance)
    return cls


def resolve_checkers(selectors: list[str] | None = None) -> list[Checker]:
    """Checkers matching ``selectors`` (ids or names); all by default."""
    if not selectors:
        return list(CHECKERS)
    chosen: list[Checker] = []
    known: set[str] = set()
    for checker in CHECKERS:
        known.update(checker.check_ids)
        known.update(checker.check_ids.values())
    for selector in selectors:
        if selector.upper() not in known and selector.lower() not in known:
            raise ValidationError(
                f"unknown check {selector!r} (known: {', '.join(sorted(known))})"
            )
    for checker in CHECKERS:
        keys = {k.lower() for k in checker.check_ids}
        keys |= set(checker.check_ids.values())
        if any(s.lower() in keys for s in selectors):
            chosen.append(checker)
    return chosen


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Map line number → suppressed check keys (``None`` = all checks)."""
    table: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        spec = match.group("checks")
        if spec is None:
            table[lineno] = None
        else:
            table[lineno] = {
                part.strip().lower() for part in spec.split(",") if part.strip()
            }
    return table


def _is_suppressed(
    finding: Finding, table: dict[int, set[str] | None]
) -> bool:
    if finding.line not in table:
        return False
    checks = table[finding.line]
    if checks is None:
        return True
    return finding.check_id.lower() in checks or finding.check_name in checks


@dataclass
class AnalysisReport:
    """Outcome of one ``ecostor check`` run."""

    findings: tuple[Finding, ...]
    files_indexed: int
    #: Findings filtered out by the committed baseline.
    baselined: tuple[Finding, ...] = ()

    @property
    def clean(self) -> bool:
        """Whether no *new* (unbaselined) findings survived suppression."""
        return not self.findings

    def render_text(self) -> str:
        """The default human-readable report."""
        lines = [f.render() for f in self.findings]
        noun = "file" if self.files_indexed == 1 else "files"
        tail = f"{self.files_indexed} {noun} analyzed"
        if self.baselined:
            tail += f", {len(self.baselined)} baselined finding(s) suppressed"
        if self.findings:
            lines.append(f"{len(self.findings)} new finding(s); {tail}")
        else:
            lines.append(f"clean: {tail}")
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report for CI artifact upload."""
        def flat(finding: Finding) -> dict[str, object]:
            return {
                "check_id": finding.check_id,
                "check_name": finding.check_name,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "context": finding.context,
                "message": finding.message,
            }

        return json.dumps(
            {
                "files_indexed": self.files_indexed,
                "new_findings": [flat(f) for f in self.findings],
                "baselined_findings": [flat(f) for f in self.baselined],
            },
            indent=2,
        )


def run_checkers(
    program: Program, checkers: list[Checker] | None = None
) -> list[Finding]:
    """Run pass 2 over every indexed file; returns surviving findings.

    Files that failed pass 1 come back as ``E0`` findings whatever the
    selection, since none of their checks could run.
    """
    chosen = checkers if checkers is not None else list(CHECKERS)
    findings = [
        Finding("E0", "parse-error", path, err.line, err.col, "", err.message)
        for path, err in program.parse_errors.items()
    ]
    for module in program.files:
        table = _suppressions(module.source)
        for checker in chosen:
            for finding in checker.check_module(module, program):
                if not _is_suppressed(finding, table):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.check_id))
    return findings
