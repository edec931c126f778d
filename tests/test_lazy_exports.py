"""The export contract of the twenty ``repro`` packages.

Seventeen library packages export lazily (``repro/_lazy.py``): importing
one loads no submodule, reaching a name loads the one submodule that
defines it.  Three driver packages (``persistence``, ``shard``,
``chaos``) import their run path eagerly.  Either way the public surface
is the same: ``from repro.pkg import Name``, ``repro.pkg.Name``,
``from repro.pkg import *``, ``dir()`` and pickling behave as if every
``__init__`` imported every submodule.
"""

import ast
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

from tests.lazy_tables import (DRIVER_PACKAGES, LIBRARY_PACKAGES, PACKAGE_ROOT,
                               REPO_ROOT, lazy_table, parse)

ALL_PACKAGES = tuple(sorted(LIBRARY_PACKAGES + DRIVER_PACKAGES))

#: What ``import repro.<driver>`` must still land in ``sys.modules``: the
#: modules its entry points execute inside the benchmark's timed regions.
DRIVER_RUN_PATH = {
    "chaos": ("campaign", "compiler", "corpus", "shrink", "spec"),
    "persistence": ("checkpoint", "journal", "replay", "runner",
                    "scenarios", "snapshot"),
    "shard": ("driver", "gateway", "mailbox", "replay", "scenario",
              "worker"),
}


def _package(name):
    return importlib.import_module(f"repro.{name}")


def _submodules(package):
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


def test_the_twenty_packages_are_the_ones_on_disk():
    import repro

    on_disk = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)
    assert on_disk == list(ALL_PACKAGES)


@pytest.mark.parametrize("name", LIBRARY_PACKAGES)
def test_lazy_table_lists_exactly_the_public_names(name):
    table = lazy_table(name)
    assert table is not None, f"repro.{name} has no lazy_exports() table"
    assert sorted(table) == sorted(_package(name).__all__)
    assert len(_package(name).__all__) == len(set(_package(name).__all__))


@pytest.mark.parametrize("name", DRIVER_PACKAGES)
def test_driver_packages_have_no_lazy_table(name):
    assert lazy_table(name) is None


@pytest.mark.parametrize("name", LIBRARY_PACKAGES)
def test_a_library_init_imports_the_helper_and_nothing_else(name):
    tree = parse(os.path.join(PACKAGE_ROOT, name, "__init__.py"))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == ["from repro._lazy import lazy_exports"]


def test_one_definition_of_the_lazy_getattr():
    """One mechanism: no second hand-written module ``__getattr__``."""
    definitions = [
        os.path.relpath(os.path.join(dirpath, filename), PACKAGE_ROOT)
        for dirpath, _dirs, files in os.walk(PACKAGE_ROOT)
        for filename in files if filename.endswith(".py")
        for node in ast.walk(parse(os.path.join(dirpath, filename)))
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    assert definitions == ["_lazy.py"]


@pytest.mark.parametrize("name", ALL_PACKAGES)
def test_every_public_name_is_its_submodules_attribute(name):
    package = _package(name)
    table = lazy_table(name)
    submodules = _submodules(package)
    for export in package.__all__:
        value = getattr(package, export)
        if table is not None:
            owner = importlib.import_module(
                f"{package.__name__}.{table[export]}")
            assert getattr(owner, export) is value, export
        else:
            assert any(vars(module).get(export) is value
                       for module in submodules), export
        # Resolved once, then an ordinary module global.
        assert vars(package)[export] is value


@pytest.mark.parametrize("name", ALL_PACKAGES)
def test_no_public_name_shadows_a_submodule(name):
    """``import repro.pkg.sub`` binds ``sub`` on the package; an exported
    name spelled the same would be replaced by the module."""
    package = _package(name)
    modules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert not modules & set(package.__all__)


@pytest.mark.parametrize("name", ALL_PACKAGES)
def test_dir_lists_the_public_names(name):
    package = _package(name)
    assert set(dir(package)) >= set(package.__all__)
    assert "__doc__" in dir(package)


@pytest.mark.parametrize("name", ALL_PACKAGES)
def test_unknown_attribute_names_the_package(name):
    package = _package(name)
    with pytest.raises(AttributeError, match=rf"repro\.{name}\b"):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


@pytest.mark.parametrize("name", ALL_PACKAGES)
def test_star_import_binds_exactly_all(name):
    namespace = {}
    exec(f"from repro.{name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(_package(name).__all__)


def test_submodule_import_through_the_package_still_works():
    """``from pkg import sub`` asks ``__getattr__`` first; it must answer
    ``AttributeError`` so the import system goes on to load ``pkg.sub``."""
    from repro.simulation import kernel
    from repro.observability import export

    assert kernel.__name__ == "repro.simulation.kernel"
    assert export.__name__ == "repro.observability.export"


def test_classes_reached_through_a_package_pickle():
    import repro.persistence
    import repro.simulation

    for cls in (repro.persistence.ScenarioSpec, repro.simulation.Event):
        assert pickle.loads(pickle.dumps(cls)) is cls
    spec = repro.persistence.ScenarioSpec(name="traffic-overload", seed=3,
                                          params={"horizon": 2.0})
    assert pickle.loads(pickle.dumps(spec)) == spec


def _loaded_after(statement):
    """``repro`` modules in a fresh interpreter's ``sys.modules``."""
    probe = (f"{statement}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('repro')))")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("name", LIBRARY_PACKAGES)
def test_importing_a_library_package_loads_no_submodule(name):
    loaded = _loaded_after(f"import repro.{name}")
    assert f"repro.{name}" in loaded
    submodules = [m for m in loaded if m.startswith(f"repro.{name}.")]
    assert not submodules, (
        f"import repro.{name} loaded {submodules}: a library package "
        "__init__ holds its docstring, __all__ and the lazy table only")


def test_reaching_a_name_loads_only_its_submodule():
    loaded = _loaded_after("from repro.simulation import RngRegistry")
    assert [m for m in loaded if m.startswith("repro.simulation.")] == [
        "repro.simulation.rng"]


@pytest.mark.parametrize("name", DRIVER_PACKAGES)
def test_importing_a_driver_package_loads_its_run_path(name):
    loaded = _loaded_after(f"import repro.{name}")
    missing = [sub for sub in DRIVER_RUN_PATH[name]
               if f"repro.{name}.{sub}" not in loaded]
    assert not missing, (
        f"import repro.{name} no longer loads {missing}; its entry points "
        "run inside the benchmark's timed regions, so their imports "
        "belong to set-up (DESIGN.md §4, 'Import what runs')")
