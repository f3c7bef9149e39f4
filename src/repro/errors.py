"""Exception hierarchy for the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument value is out of range or otherwise invalid.

    Derives from :class:`ValueError` so callers that guard individual
    calls with ``except ValueError`` keep working, while package-wide
    ``except ReproError`` handlers see it too.
    """


class UsageError(ReproError, RuntimeError):
    """An object was driven outside its documented protocol.

    Examples: reading a measurement that was never enabled, or running a
    policy that was never bound to a simulation context.  Derives from
    :class:`RuntimeError` for backwards compatibility.
    """


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class StorageError(ReproError):
    """Base class for storage-substrate errors."""


class CapacityError(StorageError):
    """An enclosure or cache partition would exceed its capacity."""


class MappingError(StorageError):
    """A logical address does not map to any physical location."""


class PowerStateError(StorageError):
    """An illegal power-state transition was requested."""


class FaultError(StorageError):
    """Base class for injected-fault conditions (:mod:`repro.faults`).

    These model *hardware* misbehaviour scheduled by a
    :class:`~repro.faults.plan.FaultPlan`; the storage controller
    catches them and degrades gracefully (retry, re-route, buffer),
    so they normally never escape a replay.
    """


class SpinUpFailedError(FaultError):
    """A spin-up attempt failed (transient); the caller should retry.

    The failed attempt's time and energy have already been charged to
    the enclosure's timeline — retrying is not free.
    """

    def __init__(self, enclosure: str, at: float) -> None:
        super().__init__(
            f"spin-up of enclosure {enclosure!r} failed at t={at:.3f}s"
        )
        self.enclosure = enclosure
        self.at = at


class EnclosureUnavailableError(FaultError):
    """An enclosure is inside an injected outage window.

    ``until`` is the virtual time the outage ends; the caller can wait
    it out (delaying the I/O) or serve the request elsewhere.
    """

    def __init__(self, enclosure: str, at: float, until: float) -> None:
        super().__init__(
            f"enclosure {enclosure!r} unavailable at t={at:.3f}s "
            f"(outage until t={until:.3f}s)"
        )
        self.enclosure = enclosure
        self.at = at
        self.until = until


class MigrationAbortedError(FaultError):
    """A data-item migration was aborted mid-transfer by fault injection.

    Raised *before* any placement book is mutated: the item stays on its
    source enclosure and per-enclosure used-bytes are untouched, so the
    action executor only has to record the abort and move on.
    """

    def __init__(self, item_id: str, at: float) -> None:
        super().__init__(
            f"migration of item {item_id!r} aborted at t={at:.3f}s"
        )
        self.item_id = item_id
        self.at = at


class TraceError(ReproError):
    """A trace file or record stream is malformed."""


class SnapshotError(ReproError):
    """A simulation snapshot file is unusable (:mod:`repro.persistence`).

    Raised when a snapshot's magic, version, length, or checksum does
    not verify, or its payload fails to decode — a torn write, a
    truncated copy, or bit rot.  The loader refuses the file outright;
    no state is ever partially restored from a bad snapshot.
    """


class ReplayError(ReproError):
    """The trace replayer was driven incorrectly (e.g. time went backwards)."""


class PlacementError(ReproError):
    """The data-placement algorithms could not satisfy their constraints."""


class WorkloadError(ReproError):
    """A workload generator was given unsatisfiable parameters."""


class ExperimentError(ReproError):
    """An experiment cell could not be completed.

    Raised by :mod:`repro.experiments.parallel` when a sweep cell fails
    (its worker raised) and the caller asks for the cell's result anyway,
    or when a cell specification does not resolve to a known workload or
    policy.  The message carries the failed cell's label and, for worker
    failures, the remote traceback.
    """


class AuditError(ReproError):
    """A runtime invariant of the simulation was violated.

    Raised by :class:`repro.devtools.audit.InvariantAuditor` when energy
    accounting, capacity accounting, or time monotonicity breaks.  The
    message carries a dump of the violating state so the failure is
    diagnosable without re-running under a debugger.
    """
