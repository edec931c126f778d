"""Read a package's lazy-export table without importing the package.

Used by ``test_lazy_exports.py``: the table must match ``__all__``.
"""

import ast
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: Packages whose ``__init__`` exports lazily through ``repro._lazy``.
LIBRARY_PACKAGES = (
    "adaptation", "coordination", "core", "data", "devices", "faults",
    "governance", "live", "modeling", "network", "observability",
    "orchestration", "security", "simulation", "streams", "traffic",
    "workloads",
)
#: Packages that import their submodules eagerly on purpose: their entry
#: points run inside the benchmark's timed regions (DESIGN.md §4).
DRIVER_PACKAGES = ("chaos", "persistence", "shard")


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def lazy_table(package):
    """``{exported name: submodule}``: the ``_EXPORTS`` literal that
    ``src/repro/<package>/__init__.py`` hands to ``lazy_exports``;
    ``None`` if the package has none (it imports eagerly)."""
    for node in parse(os.path.join(PACKAGE_ROOT, package, "__init__.py")).body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_EXPORTS"):
            return ast.literal_eval(node.value)
    return None
