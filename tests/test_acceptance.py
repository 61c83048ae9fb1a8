"""End-to-end acceptance suite.

Each test exercises one shipping criterion at its stated tolerance and prints
a single PASS/FAIL line through the terminal reporter, so the run log doubles
as the acceptance report.
"""

import time

import numpy as np
import pytest

from lpreset import (
    Allocation,
    BinGrid,
    MODE_FULL,
    MODE_STRICT,
    NextPriceDistribution,
    OptimizationProblem,
    PriceSeries,
    UtilityParams,
    build_reset_chain,
    expected_utility,
    fit_distribution,
    kkt_residual,
    landing_distribution,
    landing_law,
    optimal_strategy,
    outcome_matrix,
    percent_changes,
    projected_gradient_verify,
    proportional_strategy,
    replay,
    run_strategy,
    sample_path,
    solve,
    uniform_strategy,
    v2_baseline,
    window_for_mass,
)
from lpreset.markov import landing_over


def _announce(request, line):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(line)
    else:
        print(line)


def _verdict(request, num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _announce(request, f"[acceptance {num}] {label}: {status}{suffix}")
    return ok


def uniform_alloc(n_alpha):
    n = 2 * n_alpha + 1
    return Allocation(n_alpha=n_alpha, weights=np.full(n, 1.0 / n))


class TestAcceptance:
    def test_criterion_1_worked_example_golden(self, request, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        alloc = uniform_alloc(1)

        chain = build_reset_chain(toy_dist, 1)
        M_ok = np.allclose(
            chain.M,
            [[1 / 3, 2 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 2 / 3, 1 / 3]],
            atol=0,
        )
        O = outcome_matrix(toy_dist, 1, 1)
        O_ok = np.allclose(
            O.O,
            [[1 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 1 / 3]],
            atol=0,
        )
        p_ok = np.max(np.abs(chain.stationary - [0.25, 0.5, 0.25])) < 1e-12
        value = expected_utility(toy_dist, 1, alloc, params, MODE_STRICT)
        e_ok = abs(value - 5 / 18) < 1e-12

        best = np.inf
        for _ in range(20):
            t0 = time.perf_counter()
            expected_utility(toy_dist, 1, alloc, params, MODE_STRICT)
            best = min(best, time.perf_counter() - t0)
        t_ok = best < 1e-3

        ok = M_ok and O_ok and p_ok and e_ok and t_ok
        assert _verdict(
            request,
            1,
            "three-bin worked example",
            ok,
            f"E_u={value:.12f}, runtime={best * 1e6:.0f}us",
        )

    def test_criterion_2_monte_carlo_validation(self, request, eth_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        cells = [
            (1, 2),
            (1, 5),
            (2, 4),
            (2, 8),
            (3, 6),
            (3, 12),
            (4, 8),
            (5, 10),
            (6, 12),
            (8, 16),
        ]
        t0 = time.perf_counter()
        hits = 0
        for idx, (n_tau, n_alpha) in enumerate(cells):
            spec = proportional_strategy(eth_dist, params, n_tau=n_tau, n_alpha=n_alpha)
            analytic = expected_utility(
                eth_dist, n_tau, spec.allocation, params, MODE_FULL
            )
            path = sample_path(eth_dist, 50_000, seed=1000 + idx)
            report = run_strategy(path, spec, seed=1000 + idx)
            if abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error:
                hits += 1
        elapsed = time.perf_counter() - t0
        ok = hits >= 9 and elapsed < 30.0
        assert _verdict(
            request,
            2,
            "Monte Carlo agrees with analytic",
            ok,
            f"{hits}/10 cells within 3 SE, {elapsed:.1f}s",
        )

    def test_criterion_3_risk_neutral_single_bin(self, request, eth_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        spec, _ = optimal_strategy(landing_law(eth_dist, 0), params)
        w = spec.allocation.weights
        one_hot = int(np.sum(w > 0)) == 1 and w[spec.n_alpha] == 1.0

        smallest = expected_utility(
            eth_dist, 0, Allocation(0, np.array([1.0])), params, MODE_STRICT
        )
        value_ok = abs(smallest - 15.0) <= 0.1

        # no wider single-bin window does better
        beats_wider = all(
            smallest
            >= expected_utility(
                eth_dist,
                n_tau,
                Allocation(n_tau, np.eye(2 * n_tau + 1)[n_tau]),
                params,
                MODE_STRICT,
            )
            - 1e-12
            for n_tau in (1, 2, 3)
        )
        ok = one_hot and value_ok and beats_wider
        assert _verdict(
            request,
            3,
            "risk-neutral optimum is one bin worth 15/step",
            ok,
            f"E_u={smallest:.6f}",
        )

    def test_criterion_4_allocation_shape_progression(self, request, eth_dist):
        n_tau = window_for_mass(eth_dist, 0.5)
        spreads = {}
        one_hot = {}
        n_alpha = None
        for a in (-1.0, 0.0, 0.1, 1.0, 10.0, 15.0):
            params = UtilityParams(a=a, kappa=1.0, ell=100.0)
            spec, _ = optimal_strategy(landing_law(eth_dist, n_tau), params)
            w = spec.allocation.weights
            n_alpha = spec.n_alpha
            spreads[a] = float(w.max() - w.min())
            one_hot[a] = int(np.sum(w > 0)) == 1

        hot_ok = one_hot[-1.0] and one_hot[0.0]
        dec_ok = spreads[0.1] > spreads[1.0] > spreads[10.0]
        flat_threshold = 0.05 / (2 * n_alpha + 1)
        flat_ok = spreads[15.0] < flat_threshold

        _verdict(request, 4, "one-hot at a in {-1, 0}", hot_ok)
        _verdict(
            request,
            4,
            "spread strictly decreasing over a in {0.1, 1, 10}",
            dec_ok,
            f"{spreads[0.1]:.4g} > {spreads[1.0]:.4g} > {spreads[10.0]:.4g}",
        )
        # B_alpha is the whole reach, so the a = 15 spread is the log-range of q
        # over it: the largest weight (j = -4, q = 0.044) and the smallest
        # (j = -67, q = 1.5e-8) both lie outside B_tau, and differ by
        # ln(q_max / q_min) / (a * kappa * ell) = 14.9 / 1500 = 0.00994; the
        # stated threshold sits far below it
        _verdict(
            request,
            4,
            "a = 15 spread below 5% of uniform level",
            flat_ok,
            f"spread={spreads[15.0]:.4g}, threshold={flat_threshold:.4g}",
        )
        assert hot_ok and dec_ok and flat_ok

    def test_criterion_5_strategy_dominance(self, request, eth_dist):
        n_tau = window_for_mass(eth_dist, 0.5)
        checks = []
        for a in (0.0, 0.1):
            params = UtilityParams(a=a, kappa=1.0, ell=100.0)
            spec, _ = optimal_strategy(landing_law(eth_dist, n_tau), params)
            e_opt = expected_utility(
                eth_dist, n_tau, spec.allocation, params, MODE_FULL
            )
            best_prop = -np.inf
            for n_alpha in range(spec.n_alpha + 1):
                prop = proportional_strategy(
                    eth_dist, params, n_tau=n_tau, n_alpha=n_alpha
                )
                best_prop = max(
                    best_prop,
                    expected_utility(
                        eth_dist, n_tau, prop.allocation, params, MODE_FULL
                    ),
                )
            checks.append((f"proportional at a={a}", best_prop, e_opt))

        params = UtilityParams(a=15.0, kappa=1.0, ell=100.0)
        spec, _ = optimal_strategy(landing_law(eth_dist, n_tau), params)
        e_opt = expected_utility(eth_dist, n_tau, spec.allocation, params, MODE_FULL)
        best_uni = -np.inf
        for n_alpha in (n_tau, 10, 20, 40, spec.n_alpha):
            uni = uniform_strategy(n_tau, n_alpha, params)
            best_uni = max(
                best_uni,
                expected_utility(eth_dist, n_tau, uni.allocation, params, MODE_FULL),
            )
        checks.append(("uniform at a=15", best_uni, e_opt))

        ok = True
        details = []
        for label, got, opt in checks:
            ratio = got / opt
            ok = ok and ratio >= 0.99
            details.append(f"{label}: {ratio:.4f}")
        assert _verdict(
            request, 5, "near-optimal simple strategies", ok, "; ".join(details)
        )

    def test_criterion_6_window_mass_monotonicity(self, request, eth_dist):
        masses = (0.3, 0.5, 0.7, 0.9)
        values = {}
        for a in (0.0, 3.0):
            params = UtilityParams(a=a, kappa=1.0, ell=100.0)
            row = []
            for mass in masses:
                n_tau = window_for_mass(eth_dist, mass)
                spec, _ = optimal_strategy(landing_law(eth_dist, n_tau), params)
                row.append(
                    expected_utility(
                        eth_dist, n_tau, spec.allocation, params, MODE_FULL
                    )
                )
            values[a] = row
        dec_ok = all(x >= y - 1e-12 for x, y in zip(values[0.0], values[0.0][1:]))
        inc_ok = all(x <= y + 1e-12 for x, y in zip(values[3.0], values[3.0][1:]))
        ok = dec_ok and inc_ok
        assert _verdict(
            request,
            6,
            "utility vs window mass monotone",
            ok,
            f"a=0 non-increasing: {dec_ok}, a=3 non-decreasing: {inc_ok}",
        )

    def test_criterion_7_optimizer_certification(self, request):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst_gap = 0.0
        worst_kkt = 0.0
        worst_grad = 0.0
        count = 0
        for a in (0.1, 1.0, 10.0):
            for _ in range(34):
                n_alpha = int(rng.integers(1, 21))
                n = 2 * n_alpha + 1
                q = rng.random(n)
                q /= q.sum()
                n_tau = int(rng.integers(0, n_alpha + 1))
                js = np.arange(-n_alpha, n_alpha + 1)
                prob = OptimizationProblem(
                    q=q,
                    tau_membership=np.abs(js) <= n_tau,
                    params=UtilityParams(a=a, kappa=1.0, ell=1.0),
                )
                sol = solve(prob)
                pg = projected_gradient_verify(prob, tol=1e-14)
                worst_gap = max(worst_gap, abs(sol.objective - pg.objective))
                worst_kkt = max(worst_kkt, kkt_residual(prob, sol.allocation.weights))

                w = rng.random(n)
                w /= w.sum()
                g = prob.gradient(w)
                h = 1e-6
                fd = np.empty(n)
                for j in range(n):
                    wp, wm = w.copy(), w.copy()
                    wp[j] += h
                    wm[j] -= h
                    fd[j] = (prob.objective(wp) - prob.objective(wm)) / (2 * h)
                worst_grad = max(
                    worst_grad, np.max(np.abs(fd - g)) / np.max(np.abs(g))
                )
                count += 1
        elapsed = time.perf_counter() - t0
        ok = (
            count >= 100
            and worst_gap < 1e-6
            and worst_kkt < 1e-8
            and worst_grad < 1e-5
            and elapsed < 10.0
        )
        assert _verdict(
            request,
            7,
            "optimizer certified on random problems",
            ok,
            f"{count} problems, gap={worst_gap:.2e}, kkt={worst_kkt:.2e}, "
            f"grad={worst_grad:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_8_v2_ratio(self, request, eth_dist):
        t0 = time.perf_counter()
        params = UtilityParams(a=0.1, kappa=1.0, ell=100.0)
        n_tau = window_for_mass(eth_dist, 0.5)
        spec, _ = optimal_strategy(landing_law(eth_dist, n_tau), params)

        step = eth_dist.bin_width_pct / 100.0
        moves = sample_path(eth_dist, 50_000, seed=7)
        levels = np.concatenate([[0], np.cumsum(moves)])
        prices = 100.0 * (1.0 + step) ** (levels + 0.5)
        ts = np.arange(len(prices), dtype=float)
        series = PriceSeries(timestamps=ts, prices=prices)

        lo, hi = float(prices.min()), float(prices.max())
        grid = BinGrid.from_price_range(lo, hi, step, anchor=100.0)
        report = replay(series, spec, grid)
        natural_ok = grid.n_bins >= 1000 and report.ratio >= 50.0

        # the same strategy mean against v2 spread over coarser N-bin grids
        ratios = []
        for n_bins in (1000, 2000, 5000):
            coarse_step = (hi * 1.0001 / lo) ** (1.0 / n_bins) - 1.0
            coarse = BinGrid(
                reference_price=lo, step=coarse_step, index_range=(0, n_bins - 1)
            )
            assert coarse.n_bins == n_bins
            v2 = v2_baseline(series, coarse, params)
            ratios.append(report.mean_utility_per_step / v2)
        mono_ok = ratios[0] < ratios[1] < ratios[2]
        elapsed = time.perf_counter() - t0
        ok = natural_ok and mono_ok and elapsed < 60.0
        assert _verdict(
            request,
            8,
            "beats v2 baseline by 50x and grows with grid size",
            ok,
            f"natural grid {grid.n_bins} bins ratio={report.ratio:.1f}; "
            f"N-sweep ratios={[round(r, 1) for r in ratios]}; {elapsed:.1f}s",
        )

    def test_criterion_9_conservation_suite(self, request, eth_dist):
        rng = np.random.default_rng(99)
        failures = []

        changes = rng.laplace(scale=0.4, size=20_000)
        for k_max in (8, 32, 64):
            fitted = fit_distribution(changes, k_max=k_max)
            if abs(fitted.probs.sum() - 1.0) > 1e-12:
                failures.append(f"fit k_max={k_max} mass")

        synthetic = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.002, size=2000)))
        series = PriceSeries(
            timestamps=np.arange(2000.0), prices=synthetic
        )
        fitted = fit_distribution(percent_changes(series), k_max=16)
        if abs(fitted.probs.sum() - 1.0) > 1e-12:
            failures.append("fit from series mass")

        for dist in (eth_dist, fitted):
            for n_tau in (0, 1, 3, 7):
                chain = build_reset_chain(dist, n_tau)
                if np.max(np.abs(chain.M.sum(axis=1) - 1.0)) > 1e-12:
                    failures.append(f"rows n_tau={n_tau}")
                p = chain.stationary
                if np.max(np.abs(p @ chain.M - p)) > 1e-10:
                    failures.append(f"fixed point n_tau={n_tau}")
                n_alpha = n_tau + 2
                q = landing_distribution(
                    chain, outcome_matrix(dist, n_tau, n_alpha)
                )
                deficit = 1.0 - q.sum()
                expected = 0.0
                for idx, i in enumerate(range(-n_tau, n_tau + 1)):
                    outside = sum(
                        dist.prob(j - i)
                        for j in range(
                            -n_tau - dist.k_max, n_tau + dist.k_max + 1
                        )
                        if abs(j) > n_alpha
                    )
                    expected += p[idx] * outside
                if abs(deficit - expected) > 1e-12:
                    failures.append(f"deficit n_tau={n_tau}")

        for a in (0.0, 0.1, 15.0, -1.0):
            params = UtilityParams(a=a, kappa=1.0, ell=100.0)
            for spec in (
                uniform_strategy(2, 6, params),
                proportional_strategy(eth_dist, params, n_tau=2, n_alpha=6),
                optimal_strategy(landing_law(eth_dist, 2), params)[0],
            ):
                w = spec.allocation.weights
                if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
                    failures.append(f"simplex a={a} {spec.kind}")

        ok = not failures
        assert _verdict(
            request,
            9,
            "conservation and normalization identities",
            ok,
            "all identities hold" if ok else "; ".join(failures[:4]),
        )
