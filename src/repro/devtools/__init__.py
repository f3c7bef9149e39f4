"""Developer tooling: the static checker and the runtime invariant audit.

The simulator's correctness rests on conventions nothing in Python
enforces: SI base units everywhere (:mod:`repro.units`), a closed
power-state transition graph (:mod:`repro.storage.power`), pure and
deterministic planners, and a single exception hierarchy
(:mod:`repro.errors`).  Silent violations of those conventions produce
*wrong energy numbers* rather than crashes — the worst possible failure
mode for a paper reproduction whose headline claims rest on break-even
arithmetic (paper §II-B, Table II).

Two lines of defence, both built only on the standard library:

* :mod:`repro.devtools.analysis` — ``ecostor check``: indexes the
  package into a symbol table and call graph, then runs every checker
  over it — the per-file domain conventions (R1–R10), dimensional
  consistency over the :mod:`repro.units` aliases (D101–D104), and
  planner purity and determinism (D201–D204) — gated
  on a committed ``analysis-baseline.json``.
* :mod:`repro.devtools.audit` — an opt-in runtime
  :class:`~repro.devtools.audit.InvariantAuditor` the trace replayer
  calls every policy monitoring period to assert energy conservation,
  capacity accounting, and monotonic simulated time, raising
  :class:`~repro.errors.AuditError` with a dump of the violating state.
  Enable it with ``ecostor run WORKLOAD POLICY --audit``.

See ``docs/devtools.md`` for the check catalogue.
"""
