"""Import a module on first use of a name it defines.

A package ``__init__`` that re-exports names declares one table, name ->
defining submodule, and installs the PEP 562 pair :func:`lazy_surface`
builds::

    _LAZY = {"Engine": "engine", "Event": "events"}
    __all__ = list(_LAZY)
    __getattr__, __dir__ = lazy_surface(__name__, _LAZY)

``from package import Engine`` then imports ``package.engine`` only, and
``import package`` imports nothing below it — so a command pays at
start-up only for the modules it reaches. :func:`resolve` is the same
step for one dotted path held as data.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_surface", "resolve"]


def resolve(path: str) -> Any:
    """The object ``package.module.name`` names, importing its module."""
    module, _, name = path.rpartition(".")
    # the import statement's own path, not importlib.import_module: only
    # this one is reported by ``python -X importtime``
    __import__(module)
    return getattr(sys.modules[module], name)


def lazy_surface(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` / ``__dir__`` pair of *package*: each name of
    *table* is looked up in its submodule on first access and then bound
    in the package namespace, so later accesses cost a dict lookup."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = resolve(f"{package}.{submodule}.{name}")
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
