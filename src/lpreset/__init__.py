"""tau-reset liquidity provision: Markov analysis, CARA utility, optimal allocation.

Models a concentrated-liquidity provider who re-centers their position
whenever the price exits a reset window. The binned percent-change law h(k)
drives a reset Markov chain whose stationary distribution gives the exact
expected CARA utility of any allocation; the optimal allocation on the
probability simplex is solved in closed form and validated by Monte Carlo
simulation and historical backtesting against a Uniswap-v2-style uniform
baseline.
"""

from .backtest import BacktestReport, replay, v2_baseline
from .bins import BinGrid
from .distribution import (
    NextPriceDistribution,
    PriceSeries,
    fit_distribution,
    load_price_csv,
    percent_changes,
    stability_correlation,
)
from .errors import InputError, LpresetError, NumericalError, RangeError
from .markov import (
    LandingLaw,
    OutcomeMatrix,
    ResetChain,
    build_reset_chain,
    landing_distribution,
    landing_law,
    outcome_matrix,
    stationary_distribution,
)
from .optimizer import (
    OptimizationProblem,
    Solution,
    kkt_residual,
    projected_gradient_verify,
    solve,
)
from .simulate import SimReport, execute, run_strategy, sample_path
from .strategies import (
    StrategySpec,
    optimal_strategy,
    proportional_strategy,
    uniform_strategy,
    window_for_mass,
)
from .utility import (
    MODE_FULL,
    MODE_STRICT,
    Allocation,
    UtilityParams,
    exp_utility,
    expected_utility,
    reward,
)

__version__ = "0.1.0"
