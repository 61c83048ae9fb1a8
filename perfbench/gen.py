"""Seeded input generator for the perfbench workloads.

Runs in its own process so that the measured workload process only reads
files: its peak RSS and start-up exclude generation. The same
``--workload``/``--seed``/``--count`` always writes byte-identical files.

    python3 perfbench/gen.py --workload sweep --seed 1 --count 200 --out DIR

Prices follow a random walk with heavy-tailed Student-t log returns, scaled
so that about 15% of one-step moves land in the centre bin of the default
grid, like the synthetic ETH-like law the test suite uses. Distributions are
fitted with ``lpreset fit``. ``DIR/manifest.json`` lists every op's inputs
and the sha256 of every file written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import lpreset.cli

WORKLOADS = ("sweep", "montecarlo", "backtest")

T_DF = 3.0
T_SCALE = 0.00114  # log-return scale giving ~0.15 centre-bin mass at k_max=64
START_PRICE = 2000.0
START_TS, STEP_S = 1_600_000_000, 600
FIT_ROWS = 1_000  # rows behind each fitted dist.json
BACKTEST_ROWS = 10_000
MONTECARLO_DISTS = 8  # simulate ops cycle over these, each with its own seed; a fit per op would only slow generation

STRATEGY = {
    "kind": "proportional",
    "tau_mass": 0.5,
    "alpha_mass": 0.9,
    "params": {"a": 0.1},
}


def price_csv(rng: np.random.Generator, rows: int) -> str:
    """``timestamp,price`` text of one seeded Student-t log-return walk."""
    steps = T_SCALE * rng.standard_t(T_DF, size=rows - 1)
    prices = START_PRICE * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    lines = [f"{START_TS + i * STEP_S},{p!r}" for i, p in enumerate(prices.tolist())]
    return "timestamp,price\n" + "\n".join(lines) + "\n"


def fitted_dist(
    parser: argparse.ArgumentParser, rng: np.random.Generator, out: Path, name: str
) -> str:
    """Write a price CSV, fit it with ``lpreset fit`` and return the dist file name.

    ``parser`` is the CLI's own, built once: the command is ``lpreset fit``,
    without rebuilding the parser for each of the many distributions.
    """
    csv_path = out / f"{name}.csv"
    dist_name = f"{name}.json"
    csv_path.write_text(price_csv(rng, FIT_ROWS))
    args = parser.parse_args(["fit", str(csv_path), "--out", str(out / dist_name)])
    if args.func(args) != 0:
        raise SystemExit(f"gen: lpreset fit failed on {csv_path}")
    csv_path.unlink()
    return dist_name


def generate(workload: str, seed: int, count: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    n_rngs = MONTECARLO_DISTS if workload == "montecarlo" else count
    rngs = [np.random.default_rng(child) for child in root.spawn(n_rngs)]
    parser = lpreset.cli.build_parser()
    ops: list[dict] = []
    strategy = None
    if workload != "sweep":
        strategy = "strategy.json"
        (out / strategy).write_text(json.dumps(STRATEGY, sort_keys=True, indent=2) + "\n")
    if workload == "sweep":
        ops = [{"dist": fitted_dist(parser, rng, out, f"dist_{i:05d}")} for i, rng in enumerate(rngs)]
    elif workload == "montecarlo":
        dists = [fitted_dist(parser, rng, out, f"dist_{i:05d}") for i, rng in enumerate(rngs)]
        sim_seeds = root.generate_state(count).tolist()
        ops = [
            {"dist": dists[i % MONTECARLO_DISTS], "sim_seed": int(s)}
            for i, s in enumerate(sim_seeds)
        ]
    else:
        for i, rng in enumerate(rngs):
            name = f"prices_{i:05d}.csv"
            (out / name).write_text(price_csv(rng, BACKTEST_ROWS))
            ops.append({"prices": name, "rows": BACKTEST_ROWS})
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    manifest = {
        "workload": workload,
        "seed": seed,
        "strategy": strategy,
        "ops": ops,
        "sha256": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True, help="number of ops")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be >= 1")
    generate(args.workload, args.seed, args.count, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
