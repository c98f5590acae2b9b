"""Shared static-analysis front-end: one AST walk per module.

Every analysis pass consumes the same pre-digested view of the tree,
built here in a single recursive walk per module that lists each node's
children exactly once (:func:`child_nodes`). The passes read these
indexes and walk nothing:

* :class:`Module` — the parsed source plus flat, walk-ordered indexes of
  the nodes the passes care about (calls with their dotted callee names,
  expression statements, asserts, ``from`` imports and the import facts
  derived from all imports, ``ev.kind`` comparisons against event-name
  literals) and the module's ``# verify: allow[...]`` pragma lines.
* :class:`FunctionInfo` — per function/method: its own-scope nodes (every
  descendant outside nested defs and lambdas, in walk order), the names
  it loads, own-scope generator-ness (``yield``/``yield from``), the
  returns it makes, and its qualified name.
* :class:`ClassInfo` — per class: its trace-checker ``consumes``
  subscriptions.
* :class:`Project` — the whole-program view: modules, symbol tables by
  simple name, and the *generator name* classification the yield-discipline
  pass keys on (a simple name is generator-returning only when **every**
  project function with that name is a generator or a thin wrapper that
  returns one — ambiguous names like ``run`` are deliberately excluded).

Waivers: a finding on line *L* is suppressed when line *L* carries a
``# verify: allow`` comment, optionally naming rules
(``# verify: allow[cleanup-mutation]``), shared by every pass — except in
the kernel (``repro/core/``), where no pragma waives anything: everything
above it trusts its firing order, so a comment must never be able to
launder nondeterminism into it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ALLOW_RE",
    "GENERATOR_PRIMITIVES",
    "WALL_CLOCK",
    "WALL_CLOCK_FROM_TIME",
    "FunctionInfo",
    "ClassInfo",
    "Module",
    "Project",
    "default_target",
    "dotted_name",
    "child_nodes",
    "build_project",
]

#: ``# verify: allow`` / ``# verify: allow[rule-a, rule-b]``
ALLOW_RE = re.compile(r"#\s*verify:\s*allow(?:\[([a-z\-,\s]+)\])?")

#: simulation primitives whose result must be driven by ``yield``/``yield
#: from`` (or handed to the engine/spawn explicitly). Listed by name, so
#: they are flagged whether or not their definition is a generator
#: function: ``Comm.send`` and ``Ctx.checkpoint_point`` return another
#: function's generator, and ``Comm.recv`` returns its request — a bare
#: ``recv`` still consumes a buffered message that nothing then reads.
GENERATOR_PRIMITIVES = {
    "timeout",
    "compute",
    "mem_copy",
    "send",
    "recv",
    "sendrecv",
    "send_control",
    "stable_write",
    "stable_read",
    "at_point",
    "checkpoint_point",
    "barrier",
    "bcast",
    "reduce",
    "gather",
}


#: wall-clock calls by dotted suffix.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.clock",
    "datetime.now",
    "datetime.utcnow",
    "date.today",
}

#: the same clocks as bare names a ``from time import ...`` brings in.
WALL_CLOCK_FROM_TIME = frozenset(
    name.split(".")[1] for name in WALL_CLOCK if name.startswith("time.")
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def default_target() -> Path:
    """The package root analysed by default (``src/repro``)."""
    return Path(__file__).resolve().parent.parent.parent


def child_nodes(node: ast.AST) -> List[ast.AST]:
    """*node*'s direct children in field order: exactly
    ``list(ast.iter_child_nodes(node))``, without its generator pair."""
    out: List[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    out.append(item)
        elif isinstance(value, ast.AST):
            out.append(value)
    return out


@dataclass
class FunctionInfo:
    """One function or method, with its own-scope properties."""

    node: ast.AST
    name: str
    qualname: str
    module: "Module"
    is_generator: bool = False
    #: ``return <expr>`` values in the function's own scope.
    returns: List[ast.expr] = field(default_factory=list)
    #: every descendant outside nested defs and lambdas, in walk order
    #: (the function's own decorators, defaults and annotations included).
    own: List[ast.AST] = field(default_factory=list)
    #: names read (``ast.Load``) in the function's own scope.
    loaded: Set[str] = field(default_factory=set)

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)

    def _digest_own(self) -> None:
        """Derive the own-scope facts once :attr:`own` is complete."""
        for node in self.own:
            kind = type(node)
            if kind is ast.Name:
                if type(node.ctx) is ast.Load:
                    self.loaded.add(node.id)
            elif kind is ast.Return:
                if node.value is not None:
                    self.returns.append(node.value)
            elif kind is ast.Yield or kind is ast.YieldFrom:
                self.is_generator = True


@dataclass
class ClassInfo:
    """One class and its trace-checker subscriptions."""

    node: ast.ClassDef
    name: str
    module: "Module"
    #: ``consumes = ("kind", ...)`` statements in the class body, each
    #: with its string literals (a trace checker's subscriptions).
    consumes: List[Tuple[ast.Assign, Tuple[str, ...]]] = field(default_factory=list)


class Module:
    """One parsed module plus walk-ordered node indexes."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        parts = Path(path).parts
        #: under ``repro/core/``: no pragma waives a finding here.
        self.in_kernel = any(
            parts[i : i + 2] == ("repro", "core") for i in range(len(parts) - 1)
        )
        self.source = source
        self.lines: Sequence[str] = source.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.AST] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        # walk-ordered indexes (empty for unparsable modules)
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassInfo] = []
        #: every call, with the dotted name of its callee (or None).
        self.calls: List[Tuple[ast.Call, Optional[str]]] = []
        self.expr_statements: List[ast.Expr] = []
        self.asserts: List[ast.Assert] = []
        self.import_froms: List[ast.ImportFrom] = []
        #: every ``ev.kind ==/!=/in/not in <literal(s)>`` comparison (the
        #: checker idiom; ``event.kind`` too), with its string literals and
        #: the innermost class it sits in (None at module level).
        self.kind_compares: List[
            Tuple[ast.Compare, Tuple[str, ...], Optional[ClassInfo]]
        ] = []
        # module-level import facts (for the hygiene rules)
        self.imports_random = False
        self.imports_numpy = False
        self.numpy_aliases: Set[str] = {"numpy"}
        self.from_time_names: Set[str] = set()
        if self.tree is not None:
            self._walk(self.tree, None, [], [])

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "Module":
        return cls(path, source)

    @classmethod
    def from_file(cls, path: Path) -> "Module":
        return cls(str(path), path.read_text(encoding="utf-8"))

    # -- pragma waivers -------------------------------------------------------

    def allowed(self, lineno: int, rule: str) -> bool:
        """Does line *lineno* waive *rule* with a ``# verify: allow``?
        Never in the kernel."""
        if self.in_kernel or not (1 <= lineno <= len(self.lines)):
            return False
        m = ALLOW_RE.search(self.lines[lineno - 1])
        if not m:
            return False
        rules = m.group(1)
        if rules is None:
            return True
        return rule in {r.strip() for r in rules.split(",")}

    # -- the single walk ------------------------------------------------------

    def _walk(self, node: ast.AST, own, class_stack, func_stack) -> None:
        """Index *node*'s subtree; *own* collects the nodes of the
        innermost enclosing function's own scope (None outside one)."""
        for child in child_nodes(node):
            kind = type(child)
            if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                self._function(child, class_stack, func_stack)
                continue
            if kind is ast.Lambda:
                self._walk(child, None, class_stack, func_stack)
                continue
            if own is not None:
                own.append(child)
            if kind is ast.Call:
                self.calls.append((child, dotted_name(child.func)))
            elif kind is ast.Compare:
                self._compare(child, class_stack)
            elif kind is ast.Expr:
                self.expr_statements.append(child)
            elif kind is ast.Assert:
                self.asserts.append(child)
            elif kind is ast.Import:
                for alias in child.names:
                    if alias.name == "random":
                        self.imports_random = True
                    if alias.name == "numpy":
                        self.imports_numpy = True
                        self.numpy_aliases.add(alias.asname or "numpy")
            elif kind is ast.ImportFrom:
                self.import_froms.append(child)
                if child.module == "time":
                    for alias in child.names:
                        if alias.name in WALL_CLOCK_FROM_TIME:
                            self.from_time_names.add(alias.asname or alias.name)
            elif kind is ast.ClassDef:
                info = ClassInfo(node=child, name=child.name, module=self)
                self._collect_consumes(child, info)
                self.classes.append(info)
                self._walk(child, own, class_stack + [info], func_stack)
                continue
            if child._fields:  # contexts and operators have no children
                self._walk(child, own, class_stack, func_stack)

    def _function(self, node: ast.AST, class_stack, func_stack) -> None:
        qual = ".".join(
            [c.name for c in class_stack] + [f.name for f in func_stack] + [node.name]
        )
        info = FunctionInfo(node=node, name=node.name, qualname=qual, module=self)
        self.functions.append(info)
        self._walk(node, info.own, class_stack, func_stack + [info])
        info._digest_own()

    def _compare(self, node: ast.Compare, class_stack) -> None:
        # only the checker idiom `ev.kind == "…"` — message kinds
        # (`msg.kind == "app"`) live in a different namespace.
        left = node.left
        if not (
            type(left) is ast.Attribute
            and left.attr == "kind"
            and isinstance(left.value, ast.Name)
            and left.value.id in ("ev", "event")
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
        ):
            return
        comp = node.comparators[0]
        values = comp.elts if isinstance(comp, (ast.Tuple, ast.Set, ast.List)) else [comp]
        owner = class_stack[-1] if class_stack else None
        self.kind_compares.append((node, _strings(values), owner))

    @staticmethod
    def _collect_consumes(cls_node: ast.ClassDef, info: ClassInfo) -> None:
        for stmt in cls_node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "consumes"
                and isinstance(stmt.value, (ast.Tuple, ast.List))
            ):
                info.consumes.append((stmt, _strings(stmt.value.elts)))


def _strings(nodes: Iterable[ast.AST]) -> Tuple[str, ...]:
    """The string constants among *nodes*, in order."""
    return tuple(
        n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


class Project:
    """The whole-program view the passes operate on."""

    def __init__(self, modules: List[Module], whole_program: bool = False) -> None:
        self.modules = modules
        #: True when this project is the full ``src/repro`` tree — enables
        #: global-completeness checks (stale vocabulary, never-emitted
        #: subscriptions) that would misfire on partial file sets.
        self.whole_program = whole_program
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        for mod in modules:
            for fn in mod.functions:
                self.functions_by_name.setdefault(fn.name, []).append(fn)
        self.generator_names: Set[str] = self._classify_generators()

    # -- generator classification --------------------------------------------

    def _classify_generators(self) -> Set[str]:
        """Simple names whose every project definition is a generator (or a
        wrapper returning one). Computed to a fixed point so wrappers of
        wrappers classify too (``Ctx.checkpoint_point`` → ``at_point``)."""
        gen: Set[str] = set()
        for name, fns in self.functions_by_name.items():
            if fns and all(f.is_generator for f in fns):
                gen.add(name)
        known = gen | GENERATOR_PRIMITIVES
        changed = True
        while changed:
            changed = False
            for name, fns in self.functions_by_name.items():
                if name in gen:
                    continue
                if fns and all(
                    f.is_generator or self._wraps_generator(f, known)
                    for f in fns
                ):
                    gen.add(name)
                    known.add(name)
                    changed = True
        return gen

    @staticmethod
    def _wraps_generator(fn: FunctionInfo, known: Set[str]) -> bool:
        """Every valued return is a call to a known generator name (and
        there is at least one) — a thin forwarding wrapper."""
        if not fn.returns:
            return False
        for value in fn.returns:
            if not isinstance(value, ast.Call):
                return False
            dotted = dotted_name(value.func)
            terminal = dotted.split(".")[-1] if dotted else None
            if terminal not in known:
                return False
        return True


def iter_python_files(paths: Optional[Iterable[Path]] = None) -> List[Path]:
    roots = [Path(p) for p in paths] if paths else [default_target()]
    files: List[Path] = []
    for root in roots:
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return files


def build_project(paths: Optional[Iterable[Path]] = None) -> Project:
    """Parse and index every ``*.py`` under *paths* (default: src/repro)."""
    whole = paths is None
    modules = [Module.from_file(f) for f in iter_python_files(paths)]
    return Project(modules, whole_program=whole)
