"""R1–R10 — the repo's domain conventions, one checker per rule.

Each checker reads one indexed module's tree, path and source; none
needs the rest of the program.  They encode conventions a
general-purpose linter cannot know:

=====  ====================  ==============================================
id     name                  convention enforced
=====  ====================  ==============================================
R1     float-equality        no ``==``/``!=`` on time/energy expressions
R2     magic-number          use :mod:`repro.units` constants, not literals
R3     exception-hierarchy   raise :class:`~repro.errors.ReproError` kinds
R4     power-state           transitions only via the enclosure API, and
                             only edges of ``LEGAL_TRANSITIONS``
R5     public-api            public functions are annotated and documented
R6     mutable-default       no mutable default argument values
R7     naked-except          no bare ``except:`` / ``except Exception:``
R8     ad-hoc-time           timeline sampling and fault bookkeeping only
                             through the :mod:`repro.engine` kernel
R9     storage-mutation      storage, power-off and tier-placement
                             mutators only through :mod:`repro.actions`
R10    cross-array-access    no hardcoded foreign-array component names
                             outside :mod:`repro.fleet`; ownership comes
                             from the router, never from a literal
=====  ====================  ==============================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro import units
from repro.devtools.analysis.framework import (
    Checker,
    Finding,
    register_checker,
)
from repro.devtools.analysis.symbols import ModuleIndex, Program, terminal_name
from repro.storage.power import LEGAL_TRANSITIONS

__all__ = ["LEGAL_TRANSITION_NAMES", "MUTATOR_METHODS"]


def _owned(module: ModuleIndex, owners: tuple[str, ...]) -> bool:
    """Whether the module's path lies in one of the ``owners`` paths."""
    return any(owner in module.path for owner in owners)


def _method_calls(
    module: ModuleIndex,
) -> Iterator[tuple[ast.Call, ast.Attribute]]:
    """Every ``receiver.method(...)`` call in the module, with its callee."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node, node.func


# ---------------------------------------------------------------------------
# R1: float equality on time/energy expressions
# ---------------------------------------------------------------------------

#: Name fragments that mark an expression as time/energy-valued.  These
#: quantities are accumulated floats (integration of watts over virtual
#: seconds), so exact equality on them is almost always a latent bug.
_QUANTITY_FRAGMENTS = (
    "time",
    "seconds",
    "secs",
    "watts",
    "joules",
    "energy",
    "duration",
    "clock",
    "timestamp",
    "interval",
    "latency",
    "deadline",
)


def _is_quantity_expr(node: ast.AST) -> bool:
    name = terminal_name(node).lower()
    return any(fragment in name for fragment in _QUANTITY_FRAGMENTS)


@register_checker
class FloatEqualityChecker(Checker):
    """R1: ``==``/``!=`` between time/energy-valued expressions."""

    check_ids = {"R1": "float-equality"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag Eq/NotEq comparisons whose operands look time/energy-valued."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                suspect = next(
                    (x for x in (left, right) if _is_quantity_expr(x)), None
                )
                if suspect is None:
                    continue
                yield self.finding(
                    "R1",
                    module,
                    node,
                    "",
                    f"float equality on {terminal_name(suspect)!r} — "
                    "use math.isclose() or an explicit tolerance",
                )


# ---------------------------------------------------------------------------
# R2: magic numbers that shadow repro.units constants
# ---------------------------------------------------------------------------

#: Literal values for which a named constant exists in ``repro.units``.
_UNIT_VALUES: dict[float, str] = {
    float(units.KB): "units.KB",
    float(units.BLOCK_SIZE): "units.BLOCK_SIZE",
    float(units.MB): "units.MB",
    float(units.GB): "units.GB",
    float(units.TB): "units.TB",
    units.HOUR: "units.HOUR",
    units.DAY: "units.DAY",
}

#: Bare names that already denote unit constants — a literal multiplied
#: by one of these is a *count* (``60.0 * units.MB``), not a disguised
#: unit, so it is exempt.
_UNIT_NAMES = {
    "KB",
    "MB",
    "GB",
    "TB",
    "BLOCK_SIZE",
    "PAGE_BYTES",
    "PAGE_BLOCKS",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WATT",
    "KILOWATT",
}


def _fold_numeric(node: ast.AST) -> float | None:
    """Constant-fold a small numeric expression, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _fold_numeric(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Mult, ast.Pow)
    ):
        left = _fold_numeric(node.left)
        right = _fold_numeric(node.right)
        if left is None or right is None:
            return None
        return left * right if isinstance(node.op, ast.Mult) else left**right
    return None


def _mentions_unit_constant(node: ast.AST) -> bool:
    return any(terminal_name(sub) in _UNIT_NAMES for sub in ast.walk(node))


@register_checker
class MagicNumberChecker(Checker):
    """R2: numeric literal where a ``repro.units`` constant exists."""

    check_ids = {"R2": "magic-number"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag foldable numeric expressions matching a units constant."""
        if module.path.endswith("repro/units.py"):
            return  # the module that *defines* the constants
        parents = {
            child: parent
            for parent in ast.walk(module.tree)
            for child in ast.iter_child_nodes(parent)
        }
        flagged_within: list[ast.AST] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Constant, ast.BinOp)):
                continue
            if any(node in ast.walk(seen) for seen in flagged_within):
                continue  # already reported as part of a folded parent
            value = _fold_numeric(node)
            if value is None or value not in _UNIT_VALUES:
                continue
            parent = parents.get(node)
            if (
                isinstance(node, ast.Constant)
                and isinstance(parent, ast.BinOp)
                and _mentions_unit_constant(parent)
            ):
                continue  # e.g. ``1024 * units.KB`` — a count, not a unit
            flagged_within.append(node)
            pretty = int(value) if float(value).is_integer() else value
            yield self.finding(
                "R2",
                module,
                node,
                "",
                f"magic number {pretty} — use {_UNIT_VALUES[value]}",
            )


# ---------------------------------------------------------------------------
# R3: exception hierarchy
# ---------------------------------------------------------------------------

#: Builtin exception types that library code must not raise directly:
#: callers are promised that every library failure is a ``ReproError``.
#: Protocol errors (KeyError, TypeError, AssertionError, ...) stay
#: allowed — errors.py explicitly lets programming errors propagate.
_BANNED_RAISES = {
    "ArithmeticError",
    "BaseException",
    "EnvironmentError",
    "Exception",
    "IOError",
    "OSError",
    "RuntimeError",
    "ValueError",
}

#: Suggested ReproError replacement per banned builtin.
_RAISE_REPLACEMENTS = {
    "ValueError": "ValidationError",
    "RuntimeError": "UsageError",
}


@register_checker
class ExceptionHierarchyChecker(Checker):
    """R3: ``raise`` of a non-``ReproError`` exception class."""

    check_ids = {"R3": "exception-hierarchy"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag raises of banned builtin exception classes."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = terminal_name(node.exc)
            if name not in _BANNED_RAISES:
                continue
            hint = _RAISE_REPLACEMENTS.get(name, "a ReproError subclass")
            yield self.finding(
                "R3",
                module,
                node,
                "",
                f"raise of builtin {name} — use repro.errors.{hint} "
                "so package errors stay catchable as ReproError",
            )


# ---------------------------------------------------------------------------
# R4: power-state transitions outside the enclosure API
# ---------------------------------------------------------------------------

#: Modules allowed to mutate power state: the state machine itself.
_POWER_STATE_OWNERS = (
    "repro/storage/enclosure.py",
    "repro/storage/power.py",
)

#: Legal ``(source, target)`` state-name pairs, read from the state
#: machine's own table so the checker and the runtime cannot drift apart.
LEGAL_TRANSITION_NAMES = frozenset(
    (source.name, target.name) for source, target in LEGAL_TRANSITIONS
)


def _power_state_pair(node: ast.AST) -> tuple[str, str] | None:
    """``(a, b)`` member names if ``node`` is ``(PowerState.A, PowerState.B)``."""
    if not isinstance(node, ast.Tuple) or len(node.elts) != 2:
        return None
    names = [
        elt.attr
        for elt in node.elts
        if isinstance(elt, ast.Attribute)
        and terminal_name(elt.value) == "PowerState"
    ]
    if len(names) != 2:
        return None
    return names[0], names[1]


@register_checker
class PowerStateChecker(Checker):
    """R4: power-state transitions fabricated outside the API."""

    check_ids = {"R4": "power-state"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag raw ``.state`` writes and illegal transition tuples."""
        owner = _owned(module, _POWER_STATE_OWNERS)
        for node in ast.walk(module.tree):
            if not owner and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                writes_state = any(
                    isinstance(t, ast.Attribute)
                    and t.attr in ("state", "_state")
                    for t in targets
                )
                mentions_power_state = any(
                    isinstance(sub, ast.Attribute)
                    and terminal_name(sub.value) == "PowerState"
                    for sub in ast.walk(value)
                )
                if writes_state and mentions_power_state:
                    yield self.finding(
                        "R4",
                        module,
                        node,
                        "",
                        "power-state transition constructed outside the "
                        "DiskEnclosure/PowerModel API — drive the state "
                        "machine via submit()/settle() instead",
                    )
            pair = _power_state_pair(node)
            if pair is not None and pair not in LEGAL_TRANSITION_NAMES:
                yield self.finding(
                    "R4",
                    module,
                    node,
                    "",
                    f"illegal power-state transition {pair[0]}→{pair[1]} "
                    "(not an edge of storage.power.LEGAL_TRANSITIONS)",
                )


# ---------------------------------------------------------------------------
# R5: public API annotations and docstrings
# ---------------------------------------------------------------------------


@register_checker
class PublicApiChecker(Checker):
    """R5: public functions missing annotations or a docstring."""

    check_ids = {"R5": "public-api"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag unannotated or undocumented public functions."""
        yield from self._scan(module, module.tree, in_class=False)

    def _scan(
        self, module: ModuleIndex, scope: ast.AST, in_class: bool
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._scan(module, node, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue  # private and dunder names are exempt
                yield from self._check_function(module, node, in_class)

    def _check_function(
        self,
        module: ModuleIndex,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        problems: list[str] = []
        if ast.get_docstring(node) is None:
            problems.append("missing docstring")
        if node.returns is None:
            problems.append("missing return annotation")
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(
            terminal_name(dec) == "staticmethod" for dec in node.decorator_list
        )
        if in_class and not static and positional:
            positional = positional[1:]  # self / cls
        unannotated = [
            a.arg
            for a in [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
            if a is not None and a.annotation is None
        ]
        if unannotated:
            problems.append(
                "unannotated parameter(s): " + ", ".join(unannotated)
            )
        if problems:
            yield self.finding(
                "R5",
                module,
                node,
                "",
                f"public function {node.name!r}: " + "; ".join(problems),
            )


# ---------------------------------------------------------------------------
# R6: mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {
    "bytearray",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
    "Counter",
    "OrderedDict",
}


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    return isinstance(node, ast.Call) and terminal_name(node.func) in _MUTABLE_CALLS


@register_checker
class MutableDefaultChecker(Checker):
    """R6: mutable default argument values."""

    check_ids = {"R6": "mutable-default"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag list/dict/set literals (or constructors) used as defaults."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None and _is_mutable(default):
                    yield self.finding(
                        "R6",
                        module,
                        default,
                        "",
                        f"mutable default argument in {node.name!r} — "
                        "default to None and build the value in the body",
                    )


# ---------------------------------------------------------------------------
# R7: naked exception handlers
# ---------------------------------------------------------------------------

#: Exception names too broad to catch: a handler naming one of these
#: swallows AuditError, fault-injection errors, and genuine bugs alike.
#: Catch the narrowest ReproError subclass that the guarded code can
#: actually raise; true isolation boundaries (worker pools) carry an
#: explicit ``# check: ignore[R7]`` with a justification.
_NAKED_EXCEPTS = {"BaseException", "Exception"}


@register_checker
class NakedExceptChecker(Checker):
    """R7: bare ``except:`` or ``except Exception/BaseException:``."""

    check_ids = {"R7": "naked-except"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag handlers with no type, or an over-broad builtin type."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    "R7",
                    module,
                    node,
                    "",
                    "bare except: catches everything, including "
                    "KeyboardInterrupt — name the exception(s) expected",
                )
                continue
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for exc in types:
                name = terminal_name(exc)
                if name in _NAKED_EXCEPTS:
                    yield self.finding(
                        "R7",
                        module,
                        node,
                        "",
                        f"except {name}: is too broad — it silently "
                        "swallows audit and fault-injection failures; "
                        "catch the narrowest expected type",
                    )


# ---------------------------------------------------------------------------
# R8: ad-hoc virtual-time calls outside the simulation kernel
# ---------------------------------------------------------------------------

#: Paths allowed to drive time-owned entry points: the kernel package,
#: and the modules owning a time-driven method, which call it on
#: themselves (the timeline's ``finish`` resamples; the controller runs
#: its own bookkeeping on every submit).
_TIME_OWNERS = (
    "repro/engine/",
    "repro/monitoring/timeline.py",
    "repro/storage/controller.py",
)

#: Timeline methods that advance sampling state.  Only suspicious on a
#: timeline-looking receiver — ``random.sample`` is a different thing.
_TIMELINE_METHODS = frozenset({"sample"})


@register_checker
class AdHocTimeChecker(Checker):
    """R8: timeline sampling / fault bookkeeping bypassing the kernel."""

    check_ids = {"R8": "ad-hoc-time"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag time-owned method calls outside the kernel/owner modules."""
        if _owned(module, _TIME_OWNERS):
            return
        for node, func in _method_calls(module):
            if func.attr == "on_time":
                yield self.finding(
                    "R8",
                    module,
                    node,
                    "",
                    "direct call to on_time() — fault bookkeeping fires "
                    "from the kernel's checkpoint slot; let repro.engine "
                    "drive it instead",
                )
            elif (
                func.attr in _TIMELINE_METHODS
                and "timeline" in terminal_name(func.value).lower()
            ):
                yield self.finding(
                    "R8",
                    module,
                    node,
                    "",
                    f"direct call to {func.attr}() on a power timeline — "
                    "samples fire from the kernel's sample slot; let "
                    "repro.engine drive them instead",
                )


# ---------------------------------------------------------------------------
# R9: storage mutation outside the action layer
# ---------------------------------------------------------------------------

#: Paths allowed to call the mutators: the action layer (the executor
#: is the one component that applies plans), plus the modules that
#: *define* them, where self-calls and internal bookkeeping are
#: implementation, not bypass.
_MUTATION_OWNERS = (
    "repro/actions/",
    "repro/storage/controller.py",
    "repro/storage/enclosure.py",
    "repro/storage/virtualization.py",
)

#: Mutating entry points of the storage layer.  Everything else on the
#: controller is a read.  The D201 planner-purity checker in
#: :mod:`repro.devtools.analysis.determinism` walks the call graph for
#: the same set, closing this rule's transitive-call hole.
MUTATOR_METHODS = frozenset(
    {
        # placement, cache selection, delayed writes, migration charging
        "migrate_item",
        "preload_item",
        "unpin_item",
        "select_write_delay",
        "flush_write_delay",
        "flush_item",
        "charge_block_migration",
        # enclosure power-off enablement
        "enable_power_off",
        "disable_power_off",
        # inter-tier moves and replica bookkeeping
        "promote_item",
        "demote_item",
        "archive_item",
        "replicate_item",
        "add_replica",
        "remove_replica",
    }
)


@register_checker
class StorageMutationChecker(Checker):
    """R9: storage mutators called outside ``repro.actions``."""

    check_ids = {"R9": "storage-mutation"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag storage-mutator calls outside the action layer."""
        if _owned(module, _MUTATION_OWNERS):
            return
        for node, func in _method_calls(module):
            if func.attr in MUTATOR_METHODS:
                yield self.finding(
                    "R9",
                    module,
                    node,
                    "",
                    f"direct call to {func.attr}() — storage mutations go "
                    "through an ActionPlan applied by the repro.actions "
                    "executor, which records, gates, and costs them",
                )


# ---------------------------------------------------------------------------
# R10: cross-array access via hardcoded namespaced names
# ---------------------------------------------------------------------------

#: The package that owns fleet namespacing: router, splitter, runner,
#: aggregator, and array-level chaos may spell array-qualified names
#: (they construct and audit them); everyone else must derive ownership
#: from the router.
_FLEET_OWNERS = ("repro/fleet/",)

#: A fleet-namespaced component name: ``"array-01:enc-00"`` or a
#: default-volume form like ``"vol/array-01:enc-00"``.  Matching one of
#: these as a *literal* means the code baked in another array's
#: identity instead of asking the router.
_ARRAY_NAME_PATTERN = re.compile(r"(?:^|/)array-\d+:")

#: Storage entry points whose target a literal array name would bypass
#: the router for: the R9 mutators plus the virtualization/controller
#: lookups that resolve component names to state.
_ARRAY_ACCESS_METHODS = frozenset(
    {
        "enclosure",
        "enclosure_of",
        "items_on",
        "used_bytes",
        "free_bytes",
        "create_volume",
        "add_item",
        "move_item",
        "volume",
    }
) | MUTATOR_METHODS


@register_checker
class CrossArrayAccessChecker(Checker):
    """R10: hardcoded foreign-array names outside :mod:`repro.fleet`."""

    check_ids = {"R10": "cross-array-access"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Flag storage calls passing a literal array-namespaced name."""
        if _owned(module, _FLEET_OWNERS):
            return
        for node, func in _method_calls(module):
            if func.attr not in _ARRAY_ACCESS_METHODS:
                continue
            for argument in [*node.args, *[kw.value for kw in node.keywords]]:
                if (
                    isinstance(argument, ast.Constant)
                    and isinstance(argument.value, str)
                    and _ARRAY_NAME_PATTERN.search(argument.value)
                ):
                    yield self.finding(
                        "R10",
                        module,
                        node,
                        "",
                        f"call to {func.attr}() hardcodes the array-namespaced "
                        f"name {argument.value!r} — item/enclosure ownership "
                        "belongs to repro.fleet.routing; resolve names "
                        "through the HashRouter instead of baking in "
                        "another array's namespace",
                    )
