"""Command-line front end: fit, eval, optimize, sweep, simulate, backtest.

Every command writes deterministic JSON (sorted keys) or CSV so reruns with
identical inputs and seeds are byte-identical. The chain solve rounds
differently under more than one BLAS thread, so this module pins one before
numpy loads, whatever the environment says; a library caller that does not
import it keeps its own setting. Figures are plotted from these artifacts
by external tooling; no images are emitted here. Strategy documents are
read by ``strategies.load_strategy``; this module only maps arguments to
library calls and errors to one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

# set, not defaulted, before the first package import loads numpy and BLAS
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

from . import backtest as bt
from .bins import BinGrid
from .distribution import (
    DEFAULT_BIN_WIDTH_PCT,
    DEFAULT_K_MAX,
    NextPriceDistribution,
    fit_distribution,
    json_count,
    load_price_csv,
    percent_changes,
)
from .errors import InputError, LpresetError
from .markov import landing_law
from .simulate import run_strategy, sample_path
from .strategies import (
    load_strategy,
    optimal_strategy,
    proportional_strategy,
    uniform_strategy,
    window_for_mass,
)
from .utility import MODE_FULL, MODE_STRICT, UtilityParams
from .utility import expected_utilities, expected_utility

__all__ = ["main"]


def _emit(text: str, out: str | None, quiet: bool) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    elif not quiet:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None, quiet: bool) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out, quiet)


def _params_from_args(args: argparse.Namespace) -> UtilityParams:
    return UtilityParams(a=args.a, kappa=args.kappa, ell=args.ell)


def count(text: str) -> int:
    """A decimal count that ``json_count`` accepts: the type of every count flag and grid."""
    try:
        return json_count(int(text))
    except OverflowError:  # past the float range; argparse reports only a ValueError
        raise ValueError(text) from None


# ---------------------------------------------------------------- commands


def cmd_fit(args: argparse.Namespace) -> int:
    series = load_price_csv(args.prices)
    dist = fit_distribution(
        percent_changes(series),
        k_max=args.k_max,
        bin_width_pct=args.bin_width_pct,
        clamp_tails=args.clamp_tails,
    )
    _emit_json(dist.to_json_dict(), args.out, args.quiet)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dist = NextPriceDistribution.load(args.distribution)
    spec = load_strategy(args.strategy, dist)
    value = expected_utility(dist, spec.n_tau, spec.allocation, spec.params, args.mode)
    _emit_json(
        {
            "expected_utility": value,
            "mode": args.mode,
            "n_tau": spec.n_tau,
            "n_alpha": spec.n_alpha,
            "params": spec.params.to_json_dict(),
        },
        args.out,
        args.quiet,
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    dist = NextPriceDistribution.load(args.distribution)
    params = _params_from_args(args)
    n_tau = (
        args.n_tau if args.n_tau is not None else window_for_mass(dist, args.tau_mass)
    )
    spec, solution = optimal_strategy(dist, n_tau, params)
    _emit_json({**spec.to_json_dict(), **solution.to_json_dict()}, args.out, args.quiet)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    dist = NextPriceDistribution.load(args.distribution)
    params = _params_from_args(args)
    if args.tau_mass_grid:  # the optimal strategy, one row per mass
        masses = _parse_grid(args.tau_mass_grid, float)
        n_taus = [window_for_mass(dist, mass) for mass in masses]
        strategy, n_alphas = "optimal", [None]
    else:
        n_taus = _parse_grid(args.n_tau_grid, count)
        strategy = args.strategy or "proportional"
        n_alphas = _parse_grid(args.n_alpha_grid, count)
    # one law per distinct n_tau, so a bad n_tau is reported before any n_alpha
    laws = {n_tau: landing_law(dist, n_tau) for n_tau in dict.fromkeys(n_taus)}
    if strategy == "proportional":  # allocations independent of n_tau (given as 0)
        allocs = [proportional_strategy(dist, params, 0, a).allocation for a in n_alphas]
    elif strategy == "uniform":
        allocs = [uniform_strategy(dist, 0, a, params).allocation for a in n_alphas]
    rows = {}
    for n_tau, law in laws.items():
        if strategy == "optimal":  # solved over each B_alpha; None is the reach
            allocs = [optimal_strategy(dist, n_tau, params, a, law)[0].allocation for a in n_alphas]
        values = expected_utilities(law, allocs, params, args.mode)
        rows[n_tau] = [(alloc.n_alpha, v) for alloc, v in zip(allocs, values)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n_tau", "n_alpha", "expected_utility"])
    for n_tau in n_taus:
        writer.writerows([n_tau, a, repr(value)] for a, value in rows[n_tau])
    _emit(buf.getvalue(), args.out, args.quiet)
    return 0


def _parse_grid(raw: str | None, typ) -> list:
    if not raw:
        raise InputError("missing sweep grid specification")
    try:
        values = [typ(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad grid {raw!r}") from exc
    if not values:
        raise InputError(f"grid {raw!r} has no values")
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    dist = NextPriceDistribution.load(args.distribution)
    spec = load_strategy(args.strategy, dist)
    # the path passes straight to run_strategy, which frees it once walked
    report = run_strategy(
        sample_path(dist, args.steps, args.seed), spec, seed=args.seed, trace_out=args.trace_out
    )
    _emit_json(report.to_json_dict(), args.out, args.quiet)
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    series = load_price_csv(args.prices)
    # resolve the strategy against the distribution fitted from this series;
    # the fit also rejects a bin width that is not finite and > 0
    dist = fit_distribution(
        percent_changes(series), k_max=args.k_max, bin_width_pct=args.bin_width_pct
    )
    step = args.bin_width_pct / 100.0
    lo, hi = float(series.prices.min()), float(series.prices.max())
    anchor = float(series.prices[0]) if args.grid_anchor == "first" else lo
    grid = BinGrid.from_price_range(lo, hi * (1.0 + step), step, anchor=anchor)
    spec = load_strategy(args.strategy, dist)
    report = bt.replay(series, spec, grid, collect_band=args.band_out is not None)
    if args.band_out:
        report.write_band_csv(args.band_out)
    _emit_json(report.to_json_dict(), args.out, args.quiet)
    return 0


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser, mode: bool = False) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--quiet", action="store_true", help="suppress stdout output")
    if mode:
        p.add_argument(
            "--mode",
            choices=[MODE_STRICT, MODE_FULL],
            default=MODE_STRICT,
            help="expected-utility evaluation mode",
        )


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=0.0, help="absolute risk aversion")
    p.add_argument("--kappa", type=float, default=1.0, help="fee yield per step")
    p.add_argument("--ell", type=float, default=100.0, help="total liquidity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpreset",
        description="tau-reset liquidity provision: fit, analyze, optimize, validate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the next-price distribution from a price CSV")
    p.add_argument("prices", help="CSV with header timestamp,price")
    p.add_argument("--k-max", type=count, default=DEFAULT_K_MAX)
    p.add_argument("--bin-width-pct", type=float, default=DEFAULT_BIN_WIDTH_PCT)
    p.add_argument("--drop-tails", dest="clamp_tails", action="store_false")
    p.set_defaults(func=cmd_fit)
    _add_common(p)

    p = sub.add_parser("eval", help="expected utility of a strategy")
    p.add_argument("distribution")
    p.add_argument("strategy")
    p.set_defaults(func=cmd_eval)
    _add_common(p, mode=True)

    p = sub.add_parser("optimize", help="solve for the optimal allocation")
    p.add_argument("distribution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-tau", type=count)
    group.add_argument("--tau-mass", type=float)
    _add_params(p)
    p.set_defaults(func=cmd_optimize)
    _add_common(p)

    p = sub.add_parser("sweep", help="expected-utility sweep over window grids")
    p.add_argument("distribution")
    # --tau-mass-grid excludes --strategy and both window grids (which go
    # together); argparse has no public call that puts one flag in three groups
    taus = p.add_mutually_exclusive_group()
    mass = taus.add_argument(
        "--tau-mass-grid",
        help="comma-separated tau masses (optimal strategy per mass)",
    )
    taus.add_argument("--n-tau-grid", help="comma-separated n_tau values")
    alphas = p.add_mutually_exclusive_group()
    alphas._group_actions.append(mass)
    alphas.add_argument("--n-alpha-grid", help="comma-separated n_alpha values")
    strategies = p.add_mutually_exclusive_group()
    strategies._group_actions.append(mass)
    strategies.add_argument(
        "--strategy",
        choices=["proportional", "uniform", "optimal"],
        help="strategy on the window grids (default: proportional)",
    )
    _add_params(p)
    p.set_defaults(func=cmd_sweep)
    _add_common(p, mode=True)

    p = sub.add_parser("simulate", help="Monte Carlo run of a strategy")
    p.add_argument("distribution")
    p.add_argument("strategy")
    p.add_argument("--steps", type=count, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", help="optional per-step CSV trace")
    p.set_defaults(func=cmd_simulate)
    _add_common(p)

    p = sub.add_parser("backtest", help="replay a price series against the v2 baseline")
    p.add_argument("prices")
    p.add_argument("strategy")
    p.add_argument("--grid-anchor", choices=["first", "low"], default="first")
    p.add_argument("--k-max", type=count, default=DEFAULT_K_MAX)
    p.add_argument("--bin-width-pct", type=float, default=DEFAULT_BIN_WIDTH_PCT)
    p.add_argument("--band-out", help="optional band-trace CSV path")
    p.set_defaults(func=cmd_backtest)
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LpresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # an input or output path that cannot be opened
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
