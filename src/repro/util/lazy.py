"""PEP 562 lazy exports: a package's public names, imported on first access.

A package ``__init__`` declares which submodule defines each public name
and binds the three module attributes this returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "queue": ("JobQueue", "Lease"),
        "worker": ("QueueWorker",),
    })

``import package`` then costs nothing beyond the ``__init__`` itself;
``package.JobQueue`` imports ``package.queue`` once and caches the value
in the package namespace, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s lazy public names."""
    source = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return list(source), __getattr__, __dir__
