"""The package's export list, its import graph, its inputs, and the names
the benchmark tracer wraps."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaugelab
from gaugelab import catalog, cli, stochastic
from gaugelab.divisions import make_uniform
from gaugelab.integrand import BurkillIntegrand

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = str(Path(gaugelab.__file__).resolve().parents[1])


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gaugelab import *", namespace)
    assert len(set(gaugelab.__all__)) == len(gaugelab.__all__)
    assert set(gaugelab.__all__) <= namespace.keys()


def test_every_export_is_the_object_its_submodule_defines():
    for name in gaugelab.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"gaugelab.{gaugelab._EXPORTS[name]}")
        assert getattr(gaugelab, name) is vars(module)[name], name


def test_dir_covers_the_exports_and_unknown_names_raise():
    assert set(gaugelab.__all__) <= set(dir(gaugelab))
    assert not hasattr(gaugelab, "no_such_name")


def _submodules_loaded_by(code):
    """The gaugelab submodules a fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport sys; print(*sys.modules, file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": SRC}
    err = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stderr
    return {m.split(".", 1)[1] for m in err.split() if m.startswith("gaugelab.")}


def test_import_loads_no_submodule():
    assert _submodules_loaded_by("import gaugelab") == set()


# A cold CLI run compiles every module it imports, so an eager top-level
# import of the integrators would slow every command.
@pytest.mark.parametrize(
    "argv, never",
    [
        (["series", "--n", "3"],
         {"catalog", "integrators", "divisions", "cells", "exact", "_columns", "expr"}),
        (["brownian", "qv", "--t", "1", "--level", "2", "--paths", "2", "--seed", "1"],
         {"catalog", "integrators", "divisions", "cells", "exact"}),
    ],
    ids=["series", "brownian"],
)
def test_commands_load_only_their_own_modules(argv, never):
    loaded = _submodules_loaded_by(f"from gaugelab import cli; cli.main({argv!r})")
    assert "cli" in loaded and loaded.isdisjoint(never), sorted(loaded)


def test_no_module_reads_the_environment():
    # The command line is a run's whole input: an environment read could
    # change a label while the artifact's recorded command stays the same.
    package = Path(gaugelab.__file__).parent
    reads = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "environ" in line or "getenv" in line
    ]
    assert reads == []


def _top_level(body):
    """The statements a module runs as it loads, those in if and try blocks
    included (an `if TYPE_CHECKING:` import is a module-level import)."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(handler.body for handler in getattr(node, "handlers", []))):
                yield from _top_level(block)


def _bound_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


# Private names that only the benchmark reads.
_READ_OUTSIDE_THE_PACKAGE = {"catalog._PATH_QUANTITIES"}


def test_no_unread_import_or_private_name():
    # an import its module never reads, or a private module-level name no
    # module of the package reads, is dead code
    package = Path(gaugelab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read_anywhere = set().union(*(
        _loaded_names(tree)
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for tree in trees.values()
    ))
    dead = []
    for module, tree in trees.items():
        loaded = _loaded_names(tree)
        for node in _top_level(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                dead += [f"{module}: import {alias.name}" for alias in node.names
                         if (alias.asname or alias.name.split(".")[0]) not in loaded]
                continue
            dead += [f"{module}.{name}" for name in _bound_names(node)
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read_anywhere
                     and f"{module}.{name}" not in _READ_OUTSIDE_THE_PACKAGE]
    assert dead == []


def test_every_name_the_tracer_wraps_resolves():
    # Only a traced benchmark round installs the tracer, so a renamed or
    # deleted function would go unnoticed here; read its tables instead.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(f"gaugelab.{name}") for name in tracer._MODULES}
    for owner, name, *_ in tracer._FUNCTIONS:
        assert callable(getattr(modules[owner], name, None)), f"{owner}.{name}"
    for cls, method, *_ in tracer._METHODS:
        assert callable(getattr(getattr(modules["cells"], cls), method, None)), f"{cls}.{method}"
    # _key_riemann names riemann_sum's path by the integrand's `batch`
    assert isinstance(BurkillIntegrand.batch, property)
    h = BurkillIntegrand("length", lambda s, u, v: v - u)
    key = tracer._key_riemann(h, make_uniform(0.0, 1.0, 4))
    assert key == "divisions.riemann_sum.batched"


def test_path_sums_hold_the_functions_themselves():
    # The tracer rebinds a wrapped function in every module-level dict that
    # holds it, by identity: a plain dict of the functions keeps traced
    # catalog rounds and brownian commands timing them.
    table = stochastic.PATH_SUMS
    assert type(table) is dict
    assert list(table) == ["qv", "increment", "variation"]
    assert table["qv"] is stochastic.quadratic_variation
    assert table["increment"] is stochastic.increment_integral
    assert table["variation"] is stochastic.total_variation
    assert catalog.PATH_SUMS is table and cli.PATH_SUMS is table
