"""The package namespace: each public name is imported on first use."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpreset

# the public names, by the module that defines them
PUBLIC = {
    "backtest": ["BacktestReport", "replay", "v2_baseline"],
    "bins": ["BinGrid"],
    "distribution": ["NextPriceDistribution", "PriceSeries", "fit_distribution",
                     "load_price_csv", "percent_changes", "stability_correlation"],
    "errors": ["InputError", "LpresetError", "NumericalError", "RangeError"],
    "markov": ["LandingLaw", "OutcomeMatrix", "ResetChain", "build_reset_chain",
               "landing_distribution", "landing_law", "outcome_matrix",
               "stationary_distribution"],
    "optimizer": ["OptimizationProblem", "Solution", "kkt_residual",
                  "projected_gradient_verify", "solve"],
    "simulate": ["SimReport", "execute", "run_strategy", "sample_path"],
    "strategies": ["StrategySpec", "optimal_strategy", "proportional_strategy",
                   "uniform_strategy", "window_for_mass"],
    "utility": ["MODE_FULL", "MODE_STRICT", "Allocation", "UtilityParams", "exp_utility",
                "expected_utility"],
}

# a bare import, then a submodule by attribute
BARE_IMPORT = """
import sys
import lpreset
print("numpy" in sys.modules)
print(lpreset.markov.__name__, "numpy" in sys.modules)
"""


def test_bare_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(lpreset.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", BARE_IMPORT], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.splitlines() == ["False", "lpreset.markov True"]


def test_each_public_name_is_its_modules_object():
    assert sorted(lpreset.__all__) == sorted(sum(PUBLIC.values(), []))
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"lpreset.{module}")
        assert getattr(lpreset, module) is mod
        for name in names:
            assert getattr(lpreset, name) is getattr(mod, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lpreset import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lpreset.__all__)
    assert len(namespace) == 42


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lpreset.no_such_name


def traced_names():
    """The ``per_layer`` metric names of the benchmark that name a function or method."""
    bench = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    names = [m["name"].split(".") for m in json.loads(bench.read_text())["per_layer"]]
    return [n[:-1] for n in names if n[0] != "trace" and n[1] != "errors"]


@pytest.mark.parametrize("name", sorted({".".join(n) for n in traced_names()}))
def test_each_traced_name_exists(name):
    # the benchmark's tracer wraps these by name; a deleted one fails only a traced run
    module, *path = name.split(".")
    mod = importlib.import_module(f"lpreset.{module}")
    if len(path) == 1:
        assert path[0] in mod.__all__
        fn = getattr(mod, path[0])
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    else:
        cls_name, method = path
        assert method in vars(getattr(mod, cls_name))
