"""Package-wide checks: the benchmark tracer's bindings, and no unused imports."""

import ast
import importlib.util
import pathlib
from collections import defaultdict

import delaybsde

ROOT = pathlib.Path(__file__).parents[1]


def bench_tracing():
    """bench/tracing.py, loaded from its file without running anything."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(owner_name):
    owner = delaybsde
    for part in owner_name.split("."):
        owner = getattr(owner, part)
    return owner


def test_bench_tracer_binds_every_name_and_restores_it():
    tracing = bench_tracing()
    bindings = [(owner_of(owner), attr, layer) for owner, attr, layer in tracing.PATCHES]
    bindings += [(delaybsde.registry, name, tracing.DRIVER_LAYER)
                 for name in tracing.DRIVER_BUILDERS]
    # a name the traced run looks up and the package no longer binds fails here
    originals = [getattr(owner, attr) for owner, attr, _ in bindings]
    tracer = tracing.Tracer()
    tracer.install(delaybsde)
    try:
        patched = [getattr(owner, attr) for owner, attr, _ in bindings]
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(patched, originals))
    assert all(getattr(owner, attr) is old
               for (owner, attr, _), old in zip(bindings, originals))
    # a name bound in several modules is one object, so that one layer
    # times it wherever it is called (stability_lab's cumulative_stieltjes
    # is path_calculus's, its simulate_brownian stochastic_engine's, ...)
    objects = defaultdict(set)
    for (_, attr, layer), old in zip(bindings, originals):
        objects[layer, attr].add(id(old))
    assert all(len(ids) == 1 for ids in objects.values())


def imported_names(tree, lines):
    """(name, line) of each name an import binds, apart from __future__
    imports and names on a ``# noqa: F401`` line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    yield alias.asname or alias.name.split(".")[0], alias.lineno


def used_names(tree):
    """Names the module reads, and the names its __all__ lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_imports_in_src():
    unused = []
    for path in sorted((ROOT / "src" / "delaybsde").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree, source.splitlines())
                   if name not in used]
    assert unused == []
