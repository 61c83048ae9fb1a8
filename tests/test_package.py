"""The package namespace: each public name is imported on first use."""

import importlib
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
