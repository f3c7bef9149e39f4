"""``ecostor check``: one static checker over a whole-program index.

Pass 1 (:mod:`~repro.devtools.analysis.symbols`) reads and parses every
file under the given roots once, into a symbol table and call graph.
Pass 2 (:mod:`~repro.devtools.analysis.framework`) runs every registered
checker over each indexed module; a checker may resolve names,
attribute types and calls through the whole program.

Built-in checkers, registered by importing this package:

* **R1–R10 — domain conventions**
  (:mod:`~repro.devtools.analysis.conventions`): per-file rules on
  float equality, unit literals, the exception hierarchy, power-state
  transitions, public API, mutable defaults, naked excepts, ad-hoc
  virtual time, storage mutation outside the action layer, and
  hardcoded cross-array names.
* **D1 — dimensional consistency**
  (:mod:`~repro.devtools.analysis.dimensions`, D101–D104): propagates
  the :mod:`repro.units` dimension aliases (``Seconds``, ``Joules``,
  ``Watts``, ``Bytes``, ``Rate``) through assignments, calls, and
  attribute reads, and flags mixed-dimension arithmetic, comparisons,
  returns, and arguments.
* **D2 — planner purity & determinism**
  (:mod:`~repro.devtools.analysis.determinism`, D201–D204): proves
  policy checkpoint/trigger paths reach storage mutation only via
  ``ActionExecutor.apply`` (closing R9's transitive-call hole), and
  flags unseeded :mod:`random`, wall-clock reads, and unordered ``set``
  iteration feeding ordering-sensitive sinks.

Findings are silenced inline (``# check: ignore[D203]``) or
grandfathered in the committed ``analysis-baseline.json``
(:mod:`~repro.devtools.analysis.baseline`).  See ``docs/devtools.md``.
"""

# Importing the checker modules registers their checkers, in catalogue
# order (R1–R10, D101–D104, D201–D204).
from repro.devtools.analysis import (  # noqa: F401
    conventions,
    dimensions,
    determinism,
)
