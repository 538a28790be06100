"""The package's export list, and the names the benchmark tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import gaugelab
from gaugelab import catalog, cli, stochastic
from gaugelab.divisions import make_uniform
from gaugelab.integrand import BurkillIntegrand

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gaugelab import *", namespace)
    assert len(set(gaugelab.__all__)) == len(gaugelab.__all__)
    assert set(gaugelab.__all__) <= namespace.keys()


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
