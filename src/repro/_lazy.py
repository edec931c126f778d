"""Lazy package exports (PEP 562): import a submodule when a name is used.

A library package ``__init__`` is its docstring and::

    _EXPORTS = {"Name": "submodule", ...}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

so ``import repro.pkg`` loads nothing, and ``repro.pkg.Name`` /
``from repro.pkg import Name`` load the one submodule that defines the
name.  What a process imports is then decided by the modules that use a
name, not by the package that lists it (DESIGN.md §4, "Import what runs").
"""

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it.
    """

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        # An ordinary global from now on: __getattr__ is not asked again.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
