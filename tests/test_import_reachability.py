"""The import-reachability map of ``src/repro`` (ROADMAP item 11 ii).

A static walk of every ``import`` statement -- module level and inside
functions -- from what a user can start: the scenario registry's
registering modules, the CLI, ``benchmarks/`` and ``examples/``.  A
``from repro.pkg import Name`` on a lazily exporting package reaches the
submodule its table names (``repro/_lazy.py``), not the whole package.

Whatever no root reaches is imported by tests alone.  That set is
committed below with the ROADMAP item that will decide each module, so
dead code cannot re-accumulate silently and the PR that deletes (or
wires in) a module starts from a checked fact.
"""

import ast
import os

from tests.lazy_tables import (LIBRARY_PACKAGES, PACKAGE_ROOT, REPO_ROOT,
                               lazy_table, parse)

#: Modules under ``src/repro`` that only tests import, and who decides.
#: Item 5 ("the paper's own claims as CI gates") either makes a module
#: reachable from a gated scenario or deletes it, as item 11 (iii) did
#: with the four that were no paper model (``data.causal``,
#: ``data.pubsub``, ``governance.audit``, ``simulation.process``).
ONLY_TESTS_IMPORT = {
    # MAPE-K variants no scenario wires in (Section VII): item 5.
    "repro.adaptation.mdp_planner": 5,
    "repro.adaptation.patterns": 5,
    "repro.adaptation.uncertainty": 5,
    # Goal-model bridge and the models behind it (Section IV): item 5.
    "repro.core.goals_bridge": 5,
    "repro.modeling.goals": 5,
    "repro.modeling.mdp": 5,
    "repro.modeling.mining": 5,
    "repro.modeling.space": 5,
}


def _python_files(directory):
    for dirpath, _dirs, files in os.walk(directory):
        for filename in sorted(files):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _repro_modules():
    """``{dotted name: path}`` of every module and package in ``src/repro``."""
    src = os.path.dirname(PACKAGE_ROOT)
    modules = {}
    for path in _python_files(PACKAGE_ROOT):
        parts = os.path.relpath(path, src)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _repro_modules()
LAZY_TABLES = {f"repro.{name}": lazy_table(name) for name in LIBRARY_PACKAGES}


def _imports(path, module=None):
    """Dotted ``repro`` names the file at ``path`` can import."""
    package = []
    if module is not None:
        package = module.split(".")
        if os.path.basename(path) != "__init__.py":
            package.pop()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level:
                base = package[:len(package) - node.level + 1] + base
            target = ".".join(base)
            yield target
            table = LAZY_TABLES.get(target)
            for alias in node.names:
                names = table if alias.name == "*" and table else [alias.name]
                for name in names:
                    if table and name in table:
                        yield f"{target}.{table[name]}"
                    else:       # a submodule, or a plain attribute
                        yield f"{target}.{name}"


def _builtin_scenario_modules():
    """``_BUILTIN_MODULES`` read from the registry's source."""
    tree = parse(MODULES["repro.persistence.scenarios"])
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id == "_BUILTIN_MODULES"):
            return list(ast.literal_eval(node.value))
    raise AssertionError("_BUILTIN_MODULES not found")


def _reachable(roots):
    """Transitive closure of ``roots`` over static imports."""
    reached, queue = set(), list(roots)
    while queue:
        name = queue.pop()
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            ancestor = ".".join(parts[:depth])
            if ancestor in MODULES and ancestor not in reached:
                reached.add(ancestor)
                queue.extend(_imports(MODULES[ancestor], ancestor))
    return reached


def _script_imports(*directories):
    return [name for directory in directories
            for path in _python_files(os.path.join(REPO_ROOT, directory))
            for name in _imports(path)]


def test_a_name_import_reaches_the_submodule_its_table_names(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "from repro.simulation import RngRegistry\n"
        "def later():\n"
        "    from repro.persistence import scenarios, ScenarioSpec\n")
    names = set(_imports(str(script)))
    assert {"repro.simulation", "repro.simulation.rng",
            "repro.persistence.scenarios"} <= names
    # The name reaches its submodule and none of that package's others.
    assert _reachable(["repro.simulation", "repro.simulation.rng"]) == {
        "repro", "repro._lazy", "repro.simulation", "repro.simulation.rng"}
    reached = _reachable(names)
    # An eagerly importing package brings what its __init__ imports.
    assert "repro.persistence.replay" in reached


def test_modules_no_root_reaches_are_the_committed_list():
    roots = (_builtin_scenario_modules() + ["repro.cli", "repro.__main__"]
             + _script_imports("benchmarks", "examples"))
    unreachable = set(MODULES) - _reachable(roots)
    listed = set(ONLY_TESTS_IMPORT)
    assert unreachable - listed == set(), (
        "modules nothing but tests imports any more; wire them into a "
        "scenario or list them in ONLY_TESTS_IMPORT with the ROADMAP item "
        f"that decides them: {sorted(unreachable - listed)}")
    assert listed - unreachable == set(), (
        "listed as test-only but reachable (or deleted): drop them from "
        f"ONLY_TESTS_IMPORT: {sorted(listed - unreachable)}")
