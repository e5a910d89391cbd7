"""PEP 562 lazy exports: a package's public names, imported on first access.

A package ``__init__`` declares which module defines each public name
and binds the three module attributes this returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "queue": ("JobQueue", "Lease"),
        "..core.policy": ("Policy",),
    })

A plain key names a submodule of the package; a key that starts with a
dot is a module path relative to the package (``..core.policy`` is the
sibling package's module), for names a package re-exports from below.

``import package`` then costs nothing beyond the ``__init__`` itself;
``package.JobQueue`` imports ``package.queue`` once and caches the value
in the package namespace, so later lookups are plain attribute reads.

A name that equals its submodule's name (``repro.vision.ncc``, defined
in ``repro/vision/ncc.py``) stays the exported object: importing the
submodule binds it as a package attribute of the same name, and the
package drops that binding, so ``package.ncc`` is the function however
the submodule was first imported.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections.abc import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s lazy public names."""
    source = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])
    shadowed = {name for name, module in source.items() if name == module}
    if shadowed:

        class _Package(types.ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                if not (name in shadowed and isinstance(value, types.ModuleType)):
                    super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        relative = module if module.startswith(".") else f".{module}"
        value = getattr(importlib.import_module(relative, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return list(source), __getattr__, __dir__
