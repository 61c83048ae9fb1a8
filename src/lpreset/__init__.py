"""tau-reset liquidity provision: Markov analysis, CARA utility, optimal allocation.

Models a concentrated-liquidity provider who re-centers their position
whenever the price exits a reset window. The binned percent-change law h(k)
drives a reset Markov chain whose stationary distribution gives the exact
expected CARA utility of any allocation; the optimal allocation on the
probability simplex is solved in closed form and validated by Monte Carlo
simulation and historical backtesting against a Uniswap-v2-style uniform
baseline.

Each public name, and each submodule, is imported on first use (PEP 562), so
``import lpreset`` loads no numpy and ``lpreset.cli`` can pin the BLAS
threads before numpy loads.
"""

import importlib

_NAMES = {
    "backtest": "BacktestReport replay v2_baseline",
    "bins": "BinGrid",
    "distribution": "NextPriceDistribution PriceSeries fit_distribution load_price_csv "
    "percent_changes stability_correlation",
    "errors": "InputError LpresetError NumericalError RangeError",
    "markov": "LandingLaw OutcomeMatrix ResetChain build_reset_chain landing_distribution "
    "landing_law outcome_matrix stationary_distribution",
    "optimizer": "OptimizationProblem Solution kkt_residual projected_gradient_verify solve",
    "simulate": "SimReport execute run_strategy sample_path",
    "strategies": "StrategySpec optimal_strategy proportional_strategy uniform_strategy "
    "window_for_mass",
    "utility": "MODE_FULL MODE_STRICT Allocation UtilityParams exp_utility expected_utility",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
