"""The package's import graph is a layered DAG.

Reads every import statement under ``src/repro`` — at module level,
under ``if TYPE_CHECKING:`` and inside functions — and holds the graph to
the measured layer order::

    core < fault < machine < net < chklib < {apps, analysis} < {experiments, verify}

* a module-level import (``TYPE_CHECKING`` ones included) points to its
  own layer or a lower one;
* ``core`` imports only ``core`` and ``repro._lazy``, at any level: the
  one engine everything above trusts may not reach up and special-case a
  workload;
* the function-level imports that point up or sideways are exactly
  :data:`LATE_EDGES`. A new one fails, and so does a pinned one that
  disappears.
"""

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Set, Tuple

import pytest

import repro

#: layer -> rank. Equal ranks are peers. The root package (``repro``)
#: and its import helper (``_lazy``) sit below everything: neither
#: imports a ``repro`` module.
RANK = {
    "repro": -1,
    "_lazy": -1,
    "core": 0,
    "fault": 1,
    "machine": 2,
    "net": 3,
    "chklib": 4,
    "apps": 5,
    "analysis": 5,
    "experiments": 6,
    "verify": 6,
}

#: every function-level import that points up or sideways, as
#: (importing module, imported layer): the runtime's post-run audit
#: reaches up into ``verify``, and ``experiments`` and ``verify`` call
#: each other.
LATE_EDGES = {
    ("repro.chklib.runtime", "verify"),
    ("repro.experiments.executor", "verify"),
    ("repro.experiments.runner", "verify"),
    ("repro.verify.smoke", "experiments"),
}


def _layer(dotted: str) -> str:
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Edge(NamedTuple):
    importer: str  #: dotted name of the importing module
    target: str  #: dotted name imported (a module, or a name in one)
    in_function: bool

    @property
    def layers(self) -> Tuple[str, str]:
        return _layer(self.importer), _layer(self.target)


def imports(module: str, source: str, is_package: bool = False) -> List[Edge]:
    """Every import of a ``repro`` name in *source*, the text of *module*."""
    package = module if is_package else module.rpartition(".")[0]
    return list(_visit(ast.parse(source), module, package, False))


def _visit(
    node: ast.AST, module: str, package: str, in_function: bool
) -> Iterator[Edge]:
    for child in ast.iter_child_nodes(node):
        names: List[str] = []
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            base = child.module or ""
            if child.level:
                parts = package.split(".")
                parts = parts[: len(parts) - child.level + 1]
                base = ".".join(parts + ([child.module] if child.module else []))
            names = [f"{base}.{alias.name}" for alias in child.names]
        for name in names:
            if name.split(".")[0] == "repro":
                yield Edge(module, name, in_function)
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _visit(child, module, package, in_function or nested)


def check(edges: Iterable[Edge]) -> Tuple[List[str], Set[Tuple[str, str]]]:
    """(violations, late upward edges) of *edges*."""
    violations: List[str] = []
    late: Set[Tuple[str, str]] = set()
    for edge in edges:
        src, dst = edge.layers
        if src == dst:
            continue
        if src == "core" and dst != "_lazy":
            violations.append(
                f"{edge.importer} -> {edge.target}: core imports only core"
            )
        elif RANK[dst] >= RANK[src]:
            if edge.in_function:
                late.add((edge.importer, dst))
            else:
                violations.append(
                    f"{edge.importer} -> {edge.target}: module-level import "
                    f"from {src} into {dst}, which is not below it"
                )
    return violations, late


@pytest.fixture(scope="module")
def tree_edges() -> List[Edge]:
    root = Path(repro.__file__).resolve().parent
    edges: List[Edge] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        edges.extend(imports(module, path.read_text(encoding="utf-8"), is_package))
    return edges


# -- the package itself -------------------------------------------------------


def test_the_graph_includes_type_checking_and_function_level_imports(tree_edges):
    # net.transport imports machine only under TYPE_CHECKING
    assert any(
        e.importer == "repro.net.transport" and e.layers[1] == "machine"
        for e in tree_edges
    )
    assert any(e.in_function for e in tree_edges)


def test_the_package_is_layered(tree_edges):
    violations, _late = check(tree_edges)
    assert violations == [], "\n".join(violations)


def test_late_upward_imports_are_exactly_the_pinned_ones(tree_edges):
    _violations, late = check(tree_edges)
    assert late == LATE_EDGES


# -- the rule on planted imports ----------------------------------------------

_CORE = "repro.core.fastengine"


def test_core_upward_absolute_imports_fail():
    source = (
        "from repro.chklib.runtime import CheckpointRuntime\n"
        "import repro.experiments.runner\n"
    )
    violations, _late = check(imports(_CORE, source))
    assert len(violations) == 2
    assert all("core imports only core" in v for v in violations)


def test_core_upward_relative_import_fails():
    # ``from ..chklib import runtime`` carries module="chklib" level=2
    violations, _late = check(imports(_CORE, "from ..chklib import runtime\n"))
    assert violations == [
        "repro.core.fastengine -> repro.chklib.runtime: core imports only core"
    ]


def test_core_function_level_upward_import_fails():
    source = "def audit():\n    from ..verify import trace_check\n"
    violations, late = check(imports(_CORE, source))
    assert len(violations) == 1 and late == set()


def test_core_importing_core_and_the_lazy_helper_is_clean():
    source = (
        "import heapq\n"
        "from .engine import Engine\n"
        "from .._lazy import lazy_surface\n"
    )
    assert check(imports(_CORE, source)) == ([], set())


def test_a_type_checking_import_is_module_level():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..experiments.grid import ExperimentSpec\n"
    )
    violations, _late = check(imports("repro.net.transport", source))
    assert len(violations) == 1 and "module-level" in violations[0]


def test_a_function_level_upward_import_is_a_late_edge():
    source = "def audit(self):\n    from ..verify.trace_check import check_runtime\n"
    assert check(imports("repro.chklib.runtime", source)) == (
        [],
        {("repro.chklib.runtime", "verify")},
    )
