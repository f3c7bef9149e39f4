"""D2 — planner purity and determinism of the policy layer.

The golden bit-identity replay test and the parallel result cache both
rest on two properties this checker proves statically:

**Purity (D201).**  Policies are planners: the only way a policy's
``on_checkpoint``/``after_io``/trigger path may mutate storage is by
submitting an :class:`~repro.actions.plan.ActionPlan` to
:meth:`ActionExecutor.apply`.  Check R9 flags *direct* mutator
calls per file, but a policy could still reach a mutator through a
helper chain (the transitive-call hole).  D201 closes it: starting from
every policy entry point it walks the whole-program call graph, treats
``ActionExecutor.apply`` as the one opaque, sanctioned gateway, and
reports any path that reaches a storage mutator without passing through
it — including paths that sneak into executor internals or
controller-private helpers.

**Determinism (D202–D204).**  Replays must be bit-identical across
processes and machines, so analyzed code must not consult the module-
level :mod:`random` generator (D202 ``unseeded-random`` — seeded
``random.Random``/numpy ``default_rng`` instances are fine), the wall
clock (D203 ``wall-clock`` — ``time.time``/``perf_counter``/
``datetime.now`` and friends), or feed unordered ``set`` iteration into
ordering-sensitive sinks (D204 ``unordered-iteration`` — ``for``,
``list()``, ``tuple()``, ``enumerate()``, ``join()``; wrap in
``sorted()`` instead).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analysis.framework import (
    Checker,
    Finding,
    register_checker,
)
from repro.devtools.analysis.conventions import MUTATOR_METHODS
from repro.devtools.analysis.symbols import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleIndex,
    Program,
    terminal_name,
)

__all__ = ["DeterminismChecker", "PurityChecker"]

#: Policy entry points whose transitive call closure must stay pure.
_ENTRY_POINTS = ("on_start", "on_checkpoint", "after_io", "on_end")

#: Base class marking a planner (matched by bare name, so fixture
#: hierarchies work without importing the real one).
_POLICY_BASE = "PowerPolicy"

#: The sanctioned mutation gateway: applying a typed plan.
_GATEWAY_METHOD = "apply"
_GATEWAY_CLASS = "ActionExecutor"


def _mentions_executor(node: ast.expr | None) -> bool:
    """Whether a receiver expression textually involves an executor."""
    if node is None:
        return False
    for sub in ast.walk(node):
        name = ""
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if "executor" in name.lower():
            return True
    return False


@register_checker
class PurityChecker(Checker):
    """D201: policy paths reaching storage mutation outside the executor."""

    check_ids = {"D201": "planner-purity"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Walk every policy entry point defined in ``module``."""
        for cls in module.classes.values():
            if not self._is_policy(cls, program):
                continue
            for entry_name in _ENTRY_POINTS:
                entry = cls.methods.get(entry_name)
                if entry is None:
                    continue  # inherited entry points are checked at the base
                for offence, chain in self._find_mutations(entry, program):
                    yield self.finding(
                        "D201",
                        module,
                        entry.node,
                        entry.qualname,
                        f"reaches storage mutator {offence!r} without going "
                        f"through ActionExecutor.apply (call chain: "
                        f"{' -> '.join(chain)})",
                    )

    @staticmethod
    def _is_policy(cls: ClassInfo, program: Program) -> bool:
        return program.inherits_from(cls, _POLICY_BASE)

    def _find_mutations(
        self, entry: FunctionInfo, program: Program
    ) -> list[tuple[str, list[str]]]:
        """BFS over the call graph; returns (mutator, chain) per offence."""
        offences: list[tuple[str, list[str]]] = []
        seen: set[str] = {entry.qualname}
        queue: list[tuple[FunctionInfo, list[str]]] = [(entry, [entry.name])]
        while queue:
            fn, chain = queue.pop(0)
            module = program.modules.get(fn.module)
            owner = (
                program.classes.get(f"{fn.module}.{fn.class_name}")
                if fn.class_name
                else None
            )
            for site in fn.calls:
                if self._is_gateway(site, module, owner, program):
                    continue  # plans applied through the executor are legal
                if site.method in MUTATOR_METHODS:
                    offence = (site.method, [*chain, f"{site.method}()"])
                    if offence not in offences:
                        offences.append(offence)
                    continue
                callee = self._resolve(site, fn, module, owner, program)
                if callee is None or callee.qualname in seen:
                    continue
                seen.add(callee.qualname)
                queue.append((callee, [*chain, callee.name]))
        return offences

    def _is_gateway(
        self,
        site: CallSite,
        module: ModuleIndex | None,
        owner: ClassInfo | None,
        program: Program,
    ) -> bool:
        if site.method != _GATEWAY_METHOD:
            return False
        if _mentions_executor(site.receiver):
            return True
        if module is not None and site.receiver is not None:
            cls = self._receiver_class(site.receiver, module, owner, program)
            if cls is not None and cls.name == _GATEWAY_CLASS:
                return True
        return False

    def _resolve(
        self,
        site: CallSite,
        caller: FunctionInfo,
        module: ModuleIndex | None,
        owner: ClassInfo | None,
        program: Program,
    ) -> FunctionInfo | None:
        if module is None:
            return None
        if site.receiver is None:  # bare name call
            full = program.resolve_name(module, site.method)
            if full is not None and full in program.functions:
                return program.functions[full]
            if full is not None and full in program.classes:
                init = program.classes[full].methods.get("__init__")
                return init
            return None
        # module.function(...)
        if isinstance(site.receiver, ast.Name):
            dotted = f"{site.receiver.id}.{site.method}"
            full = program.resolve_name(module, dotted)
            if full is not None and full in program.functions:
                return program.functions[full]
        cls = self._receiver_class(site.receiver, module, owner, program)
        if cls is not None:
            return program.resolve_method(cls, site.method)
        return None

    def _receiver_class(
        self,
        receiver: ast.expr,
        module: ModuleIndex,
        owner: ClassInfo | None,
        program: Program,
    ) -> ClassInfo | None:
        """Static class of a receiver expression, best effort."""
        if isinstance(receiver, ast.Name):
            if receiver.id == "self":
                return owner
            return None
        if isinstance(receiver, ast.Attribute):
            base = self._receiver_class(receiver.value, module, owner, program)
            if base is not None:
                annotation = program.class_attribute(base, receiver.attr)
                return program.resolve_class(module, annotation)
            return None
        if isinstance(receiver, ast.Call):
            func = receiver.func
            if isinstance(func, ast.Attribute):
                base = self._receiver_class(func.value, module, owner, program)
                if base is not None:
                    method = program.resolve_method(base, func.attr)
                    if method is not None:
                        return program.resolve_class(
                            program.modules.get(method.module) or module,
                            method.returns,
                        )
            elif isinstance(func, ast.Name):
                full = program.resolve_name(module, func.id)
                if full is not None and full in program.classes:
                    return program.classes[full]
                if full is not None and full in program.functions:
                    fn = program.functions[full]
                    return program.resolve_class(
                        program.modules.get(fn.module) or module, fn.returns
                    )
        return None


#: Module-level :mod:`random` functions that draw from the shared,
#: process-global generator.  ``Random``/``SystemRandom``/``seed`` and
#: state accessors are excluded: instantiating a seeded generator is the
#: *fix* for this finding.
_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Wall-clock reads per module: anything here makes output depend on
#: when (not what) you replay.
_WALL_CLOCK = {
    "time": frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    ),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}

#: Ordering-sensitive sink calls for set iteration.
_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "join", "iter", "next"})


@register_checker
class DeterminismChecker(Checker):
    """D202–D204: nondeterminism sources that break bit-identity."""

    check_ids = {
        "D202": "unseeded-random",
        "D203": "wall-clock",
        "D204": "unordered-iteration",
    }

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Scan every expression in the module for nondeterminism sources."""
        set_names = self._set_typed_names(module)
        contexts = _context_table(module.tree, module.name)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, module, contexts)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, set_names):
                    yield self.finding(
                        "D204",
                        module,
                        node.iter,
                        contexts.get(node, ""),
                        "iterates an unordered set — order depends on hash "
                        "seeding; iterate sorted(...) instead",
                    )

    # ------------------------------------------------------------------
    # D202 / D203 and the call-shaped D204 sinks
    # ------------------------------------------------------------------
    def _check_call(
        self,
        node: ast.Call,
        module: ModuleIndex,
        contexts: dict[ast.AST, str],
    ) -> Iterator[Finding]:
        context = contexts.get(node, "")
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = terminal_name(func.value)
            target = module.imports.get(receiver, receiver)
            if receiver == "random" or target == "random":
                if func.attr in _RANDOM_FUNCS:
                    yield self.finding(
                        "D202",
                        module,
                        node,
                        context,
                        f"random.{func.attr}() draws from the process-global "
                        "generator — use a seeded random.Random / "
                        "numpy default_rng instance",
                    )
            clock = _WALL_CLOCK.get(receiver) or _WALL_CLOCK.get(
                target.rsplit(".", 1)[-1]
            )
            if clock and func.attr in clock:
                yield self.finding(
                    "D203",
                    module,
                    node,
                    context,
                    f"{receiver}.{func.attr}() reads the wall clock — "
                    "simulation logic must use virtual time "
                    "(repro.engine.SimClock)",
                )
        elif isinstance(func, ast.Name):
            origin = module.imports.get(func.id, "")
            if origin.startswith("random.") and func.id in _RANDOM_FUNCS:
                yield self.finding(
                    "D202",
                    module,
                    node,
                    context,
                    f"{func.id}() (from random) draws from the process-"
                    "global generator — use a seeded random.Random instance",
                )
            if origin.startswith("time.") and origin.split(".")[-1] in (
                _WALL_CLOCK["time"]
            ):
                yield self.finding(
                    "D203",
                    module,
                    node,
                    context,
                    f"{func.id}() (from time) reads the wall clock — "
                    "simulation logic must use virtual time",
                )
        # D204: sink(set_expr)
        sink = terminal_name(func)
        if sink in _ORDER_SINKS and node.args:
            set_names = self._set_typed_names(module)
            if self._is_set_expr(node.args[0], set_names):
                yield self.finding(
                    "D204",
                    module,
                    node,
                    context,
                    f"{sink}() over an unordered set — order depends on "
                    "hash seeding; wrap the set in sorted(...)",
                )

    # ------------------------------------------------------------------
    # D204 helpers
    # ------------------------------------------------------------------
    def _set_typed_names(self, module: ModuleIndex) -> set[str]:
        """Names statically known to hold a set, per module (memoized)."""
        cached = getattr(module, "_set_typed_names", None)
        if cached is not None:
            return cached
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and self._builds_set(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                annotation = ast.unparse(node.annotation)
                if annotation.split("[", 1)[0].strip().rsplit(".", 1)[-1] in (
                    "set",
                    "Set",
                    "frozenset",
                    "FrozenSet",
                    "AbstractSet",
                    "MutableSet",
                ):
                    names.add(node.target.id)
        module._set_typed_names = names  # type: ignore[attr-defined]
        return names

    @staticmethod
    def _builds_set(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and terminal_name(node.func) in (
            "set",
            "frozenset",
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return DeterminismChecker._builds_set(
                node.left
            ) or DeterminismChecker._builds_set(node.right)
        return False

    def _is_set_expr(self, node: ast.expr, set_names: set[str]) -> bool:
        if self._builds_set(node):
            return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False


def _context_table(tree: ast.Module, module_name: str) -> dict[ast.AST, str]:
    """Map every AST node to its enclosing definition's qualified name."""
    table: dict[ast.AST, str] = {}

    def visit(node: ast.AST, context: str) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            context = f"{context}.{node.name}" if context else node.name
        table[node] = context
        for child in ast.iter_child_nodes(node):
            visit(child, context)

    visit(tree, "")
    return {
        node: f"{module_name}.{ctx}" if ctx else ""
        for node, ctx in table.items()
    }
