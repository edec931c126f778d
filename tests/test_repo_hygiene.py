"""The repository must not track build artifacts or run outputs.

Committed ``__pycache__`` byte-code or ``trace-out/`` bundles churn
every diff and can shadow real sources; this test (and the matching CI
step) fails the moment one is staged again.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT_PATTERN = re.compile(
    r"(^|/)__pycache__/|\.pyc$"
    r"|^(trace-out|bench-out|prof-out|checkpoint-out|chaos-out|corpus"
    r"|live-out|shard-out)/")


def _tracked_files():
    try:
        proc = subprocess.run(["git", "ls-files"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout.splitlines()


def test_no_run_artifacts_tracked():
    offenders = [path for path in _tracked_files()
                 if ARTIFACT_PATTERN.search(path)]
    assert not offenders, (
        f"run artifacts tracked in git (first 10): {offenders[:10]}; "
        "git rm --cached them -- .gitignore already covers these paths")


def test_gitignore_covers_artifact_paths():
    with open(os.path.join(REPO_ROOT, ".gitignore"), encoding="utf-8") as fh:
        ignored = fh.read()
    for needle in ("__pycache__/", "*.pyc", "trace-out/", "bench-out/",
                   "prof-out/", "checkpoint-out/", "chaos-out/", "corpus/",
                   "live-out/", "shard-out/"):
        assert needle in ignored, f".gitignore lost the {needle!r} entry"


def _repro_sources():
    """``(path, dotted module parts)`` of every module under ``src/repro``."""
    root = os.path.join(REPO_ROOT, "src")
    sources = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, "repro")):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                sources.append(
                    (path, os.path.relpath(path, root)[:-3].split(os.sep)))
    return sorted(sources)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _imported_modules(tree, package):
    """``(lineno, absolute dotted target parts, names)`` per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split("."), []
        elif isinstance(node, ast.ImportFrom):
            target = node.module.split(".") if node.module else []
            if node.level:
                target = package[:len(package) - node.level + 1] + target
            yield node.lineno, target, [alias.name for alias in node.names]


def _cross_package_private_imports():
    """``from <other repro unit> import _name`` lines.

    Under ``src/repro`` a unit is a ``repro`` subpackage or top-level
    module, and an underscore name is that unit's implementation detail.
    The top-level ``benchmarks/*.py`` scripts belong to no unit, so every
    underscore import from ``repro`` is foreign to them.
    """
    sources = _repro_sources()     # (path, importing module's dotted parts)
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    for filename in sorted(os.listdir(bench_dir)):
        if filename.endswith(".py"):
            sources.append((os.path.join(bench_dir, filename),
                            ["benchmarks", ""]))
    offenders = []
    for path, parts in sources:
        package = parts[:-1]      # importing module's package
        if os.path.basename(path) == "__init__.py":
            parts = package
        for lineno, target, names in _imported_modules(_parse(path), package):
            if target[:1] != ["repro"] or target[1:2] == parts[1:2]:
                continue
            private = [name for name in names
                       if name.startswith("_") and not name.startswith("__")]
            if private:
                offenders.append(
                    f"{os.path.relpath(path, REPO_ROOT)}:{lineno} "
                    f"imports {', '.join(private)} from "
                    f"{'.'.join(target)}")
    return offenders


def test_no_private_imports_across_packages():
    offenders = _cross_package_private_imports()
    assert not offenders, (
        "underscore-prefixed names imported across repro packages "
        f"(give them a public name, or keep the caller inside): {offenders}")


#: Planes the persistence plane records; none of them may know it exists.
#: (``traffic`` and ``security`` register their scenarios with it from
#: their ``scenarios.py`` -- the one module per plane allowed to.)
_BELOW_PERSISTENCE = {
    "simulation", "network", "devices", "faults", "coordination", "data",
    "modeling", "adaptation", "orchestration", "governance", "streams",
    "workloads", "core", "traffic", "security",
}


def test_protocol_planes_do_not_import_persistence():
    offenders = []
    for path, parts in _repro_sources():
        if (parts[1] not in _BELOW_PERSISTENCE
                or parts[1:] in (["traffic", "scenarios"],
                                 ["security", "scenarios"])):
            continue
        for lineno, target, names in _imported_modules(_parse(path),
                                                       parts[:-1]):
            if (target[:2] == ["repro", "persistence"]
                    or (target == ["repro"] and "persistence" in names)):
                offenders.append(
                    f"{os.path.relpath(path, REPO_ROOT)}:{lineno}")
    assert not offenders, (
        "modules below the persistence plane import repro.persistence "
        f"(persistence observes them, never the reverse): {offenders}")


def test_one_way_to_restore_a_run():
    """No component-level ``restore_state``/``restore_event`` protocol:
    every resume is rebuild + fast-forward + digest check (``Run.resume``)."""
    offenders = [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno} {node.name}"
        for path, _parts in _repro_sources()
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("restore_state", "restore_event")]
    assert not offenders, (
        "direct component restoration is deleted (DESIGN.md, 'One way to "
        f"restore a run'); do not grow it back: {offenders}")


def test_third_party_imports_stay_out_of_the_run_path():
    """``src/`` routes on its own adjacency map (no networkx at all) and
    loads numpy only inside the ``modeling/dtmc.py`` methods that solve."""
    offenders = []
    for path, parts in _repro_sources():
        tree, package = _parse(path), parts[:-1]
        in_functions = {
            lineno
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for lineno, _target, _names in _imported_modules(function, package)}
        for lineno, target, _names in _imported_modules(tree, package):
            lazy_solver_import = (target[:1] == ["numpy"]
                                  and parts[1:] == ["modeling", "dtmc"]
                                  and lineno in in_functions)
            if target[:1] in (["networkx"], ["numpy"]) \
                    and not lazy_solver_import:
                offenders.append(f"{os.path.relpath(path, REPO_ROOT)}:{lineno}"
                                 f" imports {target[0]}")
    assert not offenders, (
        "the tie-break rule belongs to repro.network.topology and numpy "
        f"loads on first solve (DESIGN.md §4, 'Route on change'): {offenders}")


_STARTUP_PROBE = """
import sys
before = set(sys.modules)
import repro.cli, repro.chaos, repro.shard, repro.observability.export
from repro.persistence import ScenarioSpec, prepare, scenario_names
scenario_names()
prepared = prepare(ScenarioSpec(name="traffic-overload", seed=23,
                                params={"horizon": 2.0}))
prepared.system.run(until=prepared.horizon)
assert prepared.system.sim.fired_count > 0
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# __mp_main__ is multiprocessing's second name for __main__.
allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
print(len(sys.modules), *sorted(loaded - allowed))
"""


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_a_run_loads_no_third_party_module():
    """Importing what the repo benchmark's ``load_program()`` imports, then
    building and running a quick ``traffic-overload``, loads the standard
    library and ``repro`` only -- start-up is paid by every CLI command,
    test subprocess and pool worker."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, *third_party = proc.stdout.split()
    assert not third_party, (
        f"a plain run imported third-party modules: {third_party}")
    assert int(modules) <= 300, (
        f"{modules} modules loaded at start-up (693 before the owned "
        "adjacency map; see EXPERIMENTS.md, 'Start-up')")
