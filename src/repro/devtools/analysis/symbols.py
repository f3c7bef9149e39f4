"""Pass 1 of the analyzer: whole-program symbol table and call graph.

:func:`index_paths` parses every Python file under the given roots into
a :class:`Program`: per-module import tables, every function/method with
its parameter and return annotation *strings*, every class with its
resolved base chain, annotated attributes, and properties, plus one
:class:`CallSite` per call expression.  Checkers (pass 2) run per module
but resolve names *through* the program — that is what makes the
dimensional and purity analyses interprocedural rather than per-file.

Module names are recovered from the filesystem: a file's dotted name is
built by walking up through parent directories that contain an
``__init__.py`` (``src/repro/storage/meter.py`` → ``repro.storage.meter``),
so absolute imports inside the analyzed tree resolve to indexed modules
without any sys.path games.

Everything is best-effort static resolution: an unresolvable name simply
resolves to ``None`` and checkers stay silent about it — the analyses
prefer missed findings over false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro.errors import ValidationError

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleIndex",
    "ParseError",
    "Program",
    "index_paths",
    "iter_python_files",
    "module_name_for",
    "terminal_name",
]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub
        elif path.is_file():
            yield path
        else:
            raise ValidationError(f"no such file or directory: {path}")


def module_name_for(path: Path) -> str:
    """Dotted module name recovered from package ``__init__.py`` markers."""
    resolved = path.resolve()
    parts = [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [resolved.parent.name]
    return ".".join(reversed(parts))


def _annotation_text(node: ast.expr | None) -> str | None:
    """Annotation as source text, unwrapping ``Optional``/``| None``/quotes."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return node.value
    # X | None  /  None | X
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_text(node.left)
        right = _annotation_text(node.right)
        if left == "None":
            return right
        if right == "None":
            return left
    # Optional[X]
    if isinstance(node, ast.Subscript):
        base = terminal_name(node.value)
        if base == "Optional":
            return _annotation_text(node.slice)
        if base == "Final":
            return _annotation_text(node.slice)
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed tree
        return None


def terminal_name(node: ast.AST) -> str:
    """Last dotted component of a name-like expression, else ``''``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return ""


def annotation_terminal(text: str | None) -> str | None:
    """Terminal identifier of an annotation string (``units.Seconds`` → ``Seconds``)."""
    if not text:
        return None
    head = text.split("[", 1)[0].strip()
    return head.rsplit(".", 1)[-1] or None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Terminal attribute/function name being called (``migrate_item``).
    method: str
    #: Receiver expression for method calls, ``None`` for bare names.
    receiver: ast.expr | None


@dataclass
class FunctionInfo:
    """One function or method in the indexed program."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Parameter name → annotation text (``None`` when unannotated),
    #: excluding ``self``/``cls`` on methods.
    params: dict[str, str | None]
    returns: str | None
    class_name: str | None = None
    is_property: bool = False
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Bare function name (last qualname component)."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition in the indexed program."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    #: Base-class expressions as written (``PowerPolicy``, ``abc.ABC``).
    bases: list[str]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Attribute/field name → annotation text (class-level ``AnnAssign``
    #: plus annotated/inferred ``self.x = ...`` in ``__init__``).
    attributes: dict[str, str] = field(default_factory=dict)
    #: Property name → return annotation text.
    properties: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Bare class name (last qualname component)."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleIndex:
    """Everything pass 1 learned about one module."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: Local name → fully-qualified imported name (``Path`` →
    #: ``pathlib.Path``; ``units`` → ``repro.units``).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level variable → annotation text.
    variables: dict[str, str] = field(default_factory=dict)


class ParseError(NamedTuple):
    """Where and why one file could not be indexed."""

    line: int
    col: int
    message: str


class Program:
    """The indexed program: pass-1 output, shared by every checker."""

    def __init__(self) -> None:
        #: Every indexed file, in discovery order.  Two files may share a
        #: dotted name (``a/mod.py`` and ``b/mod.py``); both are checked.
        self.files: list[ModuleIndex] = []
        #: Modules by dotted name, for import resolution (last file wins).
        self.modules: dict[str, ModuleIndex] = {}
        #: Every function/method by fully-qualified name.
        self.functions: dict[str, FunctionInfo] = {}
        #: Every class by fully-qualified name.
        self.classes: dict[str, ClassInfo] = {}
        #: Bare class name → classes carrying it (fallback resolution).
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: Files that could not be decoded or parsed, by path.
        self.parse_errors: dict[str, ParseError] = {}

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve_name(self, module: ModuleIndex, dotted: str) -> str | None:
        """Fully-qualified name for ``dotted`` as seen from ``module``."""
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        local = f"{module.name}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        if dotted in self.functions or dotted in self.classes:
            return dotted
        return None

    def resolve_class(
        self, module: ModuleIndex, annotation: str | None
    ) -> ClassInfo | None:
        """Class named by an annotation string, resolved from ``module``."""
        if not annotation:
            return None
        dotted = annotation.split("[", 1)[0].strip()
        if not dotted or dotted in ("None", "Any"):
            return None
        full = self.resolve_name(module, dotted)
        if full is not None and full in self.classes:
            return self.classes[full]
        candidates = self.classes_by_name.get(dotted.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_method(
        self, cls: ClassInfo, name: str
    ) -> FunctionInfo | None:
        """Look up ``name`` on ``cls`` and then up its resolved base chain."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            module = self.modules.get(current.module)
            for base in current.bases:
                resolved = None
                if module is not None:
                    full = self.resolve_name(module, base)
                    if full is not None:
                        resolved = self.classes.get(full)
                if resolved is None:
                    candidates = self.classes_by_name.get(
                        base.rsplit(".", 1)[-1], []
                    )
                    if len(candidates) == 1:
                        resolved = candidates[0]
                if resolved is not None:
                    queue.append(resolved)
        return None

    def class_attribute(self, cls: ClassInfo, name: str) -> str | None:
        """Annotation text of attribute/property ``name``, following bases."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.attributes:
                return current.attributes[name]
            if name in current.properties:
                return current.properties[name]
            module = self.modules.get(current.module)
            if module is not None:
                for base in current.bases:
                    full = self.resolve_name(module, base)
                    if full is not None and full in self.classes:
                        queue.append(self.classes[full])
        return None

    def inherits_from(self, cls: ClassInfo, base_name: str) -> bool:
        """Whether ``cls`` has a (transitive) base whose bare name matches."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            module = self.modules.get(current.module)
            for base in current.bases:
                if base.rsplit(".", 1)[-1] == base_name:
                    return True
                if module is not None:
                    full = self.resolve_name(module, base)
                    if full is not None and full in self.classes:
                        queue.append(self.classes[full])
        return False


def _collect_calls(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[CallSite]:
    calls: list[CallSite] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            calls.append(
                CallSite(node=node, method=node.func.attr, receiver=node.func.value)
            )
        elif isinstance(node.func, ast.Name):
            calls.append(CallSite(node=node, method=node.func.id, receiver=None))
    return calls


def _index_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleIndex,
    class_name: str | None,
) -> FunctionInfo:
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if class_name is not None and positional and not any(
        terminal_name(dec) == "staticmethod" for dec in node.decorator_list
    ):
        positional = positional[1:]  # self / cls
    params: dict[str, str | None] = {}
    for arg in [*positional, *args.kwonlyargs]:
        params[arg.arg] = _annotation_text(arg.annotation)
    prefix = f"{module.name}.{class_name}." if class_name else f"{module.name}."
    return FunctionInfo(
        qualname=prefix + node.name,
        module=module.name,
        path=module.path,
        node=node,
        params=params,
        returns=_annotation_text(node.returns),
        class_name=class_name,
        is_property=any(
            terminal_name(dec) in ("property", "cached_property")
            for dec in node.decorator_list
        ),
        calls=_collect_calls(node),
    )


def _index_class(node: ast.ClassDef, module: ModuleIndex) -> ClassInfo:
    info = ClassInfo(
        qualname=f"{module.name}.{node.name}",
        module=module.name,
        path=module.path,
        node=node,
        bases=[b for b in (_annotation_text(base) for base in node.bases) if b],
    )
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _index_function(child, module, node.name)
            info.methods[child.name] = fn
            if fn.is_property and fn.returns:
                info.properties[child.name] = fn.returns
        elif isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            text = _annotation_text(child.annotation)
            if text:
                info.attributes[child.target.id] = text
    _index_instance_attributes(info)
    return info


def _index_instance_attributes(info: ClassInfo) -> None:
    """Record ``self.x`` annotations/constructor types from ``__init__``."""
    init = info.methods.get("__init__")
    if init is None:
        return
    for node in ast.walk(init.node):
        if isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in info.attributes
            ):
                text = _annotation_text(node.annotation)
                if text:
                    info.attributes[target.attr] = text
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = terminal_name(node.value.func)
            if not callee or not callee[:1].isupper():
                continue  # heuristics: constructor calls are CamelCase
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in info.attributes
                ):
                    info.attributes[target.attr] = callee
        elif isinstance(node, ast.Assign):
            # ``self.x = param`` where the parameter is annotated.
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Name)
                    and target.attr not in info.attributes
                ):
                    text = init.params.get(node.value.id)
                    if text:
                        info.attributes[target.attr] = text


def _index_imports(tree: ast.Module, index: ModuleIndex) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                index.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: anchor at this package
                parts = index.name.split(".")
                anchor = parts[: len(parts) - node.level]
                base = ".".join([*anchor, node.module] if node.module else anchor)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                index.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _position(prefix: str) -> tuple[int, int]:
    """Line (1-based) and column (0-based) just past ``prefix``."""
    return prefix.count("\n") + 1, len(prefix) - (prefix.rfind("\n") + 1)


def _parse(path: Path) -> tuple[str, ast.Module] | ParseError:
    """Read and parse one file, or say where it stops being Python."""
    data = path.read_bytes()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, col = _position(data[: exc.start].decode("utf-8"))
        return ParseError(
            line, col, f"file is not UTF-8: byte 0x{data[exc.start]:02x}"
        )
    try:
        return source, ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        if isinstance(exc, SyntaxError) and exc.lineno is not None:
            col = max((exc.offset or 1) - 1, 0)
            return ParseError(exc.lineno, col, f"file does not parse: {exc.msg}")
        # Only a null byte gets here: older Pythons raise ValueError for
        # it, newer ones a SyntaxError without a line number.
        line, col = _position(source.partition("\0")[0])
        return ParseError(line, col, "file does not parse: null byte")


def index_module(path: Path, program: Program) -> ModuleIndex | None:
    """Index one file into ``program``; returns ``None`` on a parse error."""
    parsed = _parse(path)
    if isinstance(parsed, ParseError):
        program.parse_errors[str(path)] = parsed
        return None
    source, tree = parsed
    index = ModuleIndex(
        name=module_name_for(path),
        path=Path(path).as_posix(),
        tree=tree,
        source=source,
    )
    _index_imports(tree, index)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _index_function(node, index, None)
            index.functions[node.name] = fn
            program.functions[fn.qualname] = fn
        elif isinstance(node, ast.ClassDef):
            cls = _index_class(node, index)
            index.classes[node.name] = cls
            program.classes[cls.qualname] = cls
            program.classes_by_name.setdefault(cls.name, []).append(cls)
            for method in cls.methods.values():
                program.functions[method.qualname] = method
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            text = _annotation_text(node.annotation)
            if text:
                index.variables[node.target.id] = text
    program.files.append(index)
    program.modules[index.name] = index
    return index


def index_paths(paths: Iterable[str | Path]) -> Program:
    """Pass 1: build the whole-program index for every file under ``paths``.

    Each file is read and parsed once, even when roots overlap.
    """
    program = Program()
    seen: set[Path] = set()
    for path in iter_python_files(paths):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            index_module(path, program)
    return program
