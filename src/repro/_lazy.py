"""Lazy package exports (PEP 562).

Each package ``__init__`` declares one table from public name to the
module that defines it, relative to the package::

    _EXPORTS = {"SRAA": ".buckets", "PAPER_SLO": ".sla"}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    __all__ = list(_EXPORTS)

A name's module is imported on its first access, and the value is
cached on the package, so later lookups never reach ``__getattr__``.
Importing a package therefore runs its ``__init__`` and nothing else,
and a command loads only the modules it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``'s export table."""

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(vars(sys.modules[package]).keys() | exports.keys())

    return __getattr__, __dir__
