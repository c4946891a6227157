"""Lazy re-exports for package ``__init__`` modules (PEP 562).

Every package in :mod:`repro` re-exports a public API from its
submodules. Importing those submodules eagerly made ``import repro``
(and with it every CLI command and the server) load NumPy, networkx,
``multiprocessing`` and the sweep fabric before doing any work.
:func:`lazy_exports` keeps the same names, ``__all__`` and ``dir()``
but imports a submodule only when one of its names is first read.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> "tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]":
    """``(__all__, __getattr__, __dir__)`` for a package's lazy public API.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it defines for re-export; ``__all__`` lists them in that
    order. Reading a name imports its submodule and caches the value in
    the package namespace, so later reads are plain attribute lookups.
    Reading a submodule's own name imports that submodule.

    A name that is also a submodule's name (``repro.core.classify`` the
    function and the module) is bound now, not on first read: importing
    the submodule sets the package attribute to the module, which would
    shadow the lazily re-exported function.
    """
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def submodule(name: str) -> ModuleType:
        # ``__import__`` rather than ``importlib.import_module``: only the
        # former is timed by ``-X importtime``, which would otherwise
        # book a lazily loaded submodule as its importer's own time.
        __import__(f"{package}.{name}")
        return sys.modules[f"{package}.{name}"]

    def __getattr__(name: str) -> Any:
        """Import the submodule that defines ``name`` and cache the value."""
        if name in origin:
            value = getattr(submodule(origin[name]), name)
        elif name in exports:
            value = submodule(name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        """Loaded attributes plus every lazy export and submodule."""
        return sorted(set(namespace) | set(origin) | set(exports))

    for name in origin.keys() & exports.keys():
        __getattr__(name)
    return list(origin), __getattr__, __dir__
