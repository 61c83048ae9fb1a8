"""Byte-identity check of the ``lpreset`` CLI: fixed commands, all outputs in one directory.

    python3 tools/cli_outputs.py --src OLD/src --inputs IN --out out_old --seed 7
    python3 tools/cli_outputs.py --src src --inputs IN --out out_new --seed 7
    python3 tools/cli_diff.py out_old out_new    # exit 0: no output byte moved

When ``--inputs`` does not exist yet it is built from ``--seed`` with this
checkout's ``perfbench/gen.py``, which fits with this checkout's ``lpreset
fit``: two fitted distributions, one 10,000-row price CSV, two variants of
that CSV with the same prices, and the strategy documents below. The base
CSV is plain epoch seconds and takes the loader's numpy path. The ``iso``
variant has ISO-8601 timestamps; the ``crlf`` variant has CRLF line ends,
fields padded with spaces and one quoted price. Both take the row-by-row
path. Later runs reuse the directory, so every tree reads the same files;
a directory that lacks any of them (one an older checkout built) stops the
run with the list of what is missing. The commands then run in one child
process with ``--src`` as its PYTHONPATH and the BLAS threads pinned to 1;
each writes its output with ``--out`` (and ``--trace-out``/``--band-out``)
under ``--out``, and ``exit_codes.txt`` lists each command with its exit
code.

The command set: ``fit`` (two settings) and ``backtest --band-out`` with
both grid anchors for every price CSV and strategy document, the same
``fit`` and, for one document, ``backtest --band-out`` with both anchors on
the base CSV at ``--bin-width-pct 1e-6`` (a grid of about 20 million bins
for 10,000 rows), the same ``backtest --band-out`` at ``--bin-width-pct
1e-8`` (about 2 billion bins, moves of up to 3e8 bins), ``optimize``
(count and mass), ``sweep`` (proportional, uniform, optimal and a mass
grid, plus proportional and uniform in both modes over an n_alpha grid
that passes k_max and the reach, with a repeated n_tau), and ``eval`` in both modes and ``simulate --trace-out`` for every
strategy document. The documents are the
constructor form with counts, the constructor form with masses, the
weights form, and two uniform documents at n_tau 0 and 40 (every move a
sure reset of ``simulate.execute``, and none), each at risk aversion a in
{-1, 0, 0.1, 15}: 36 documents, 523 commands and 816 files with
``exit_codes.txt``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RISKS = (-1.0, 0.0, 0.1, 15.0)
DOCUMENTS = {
    "uniform_count": {"kind": "uniform", "n_tau": 2, "n_alpha": 5},
    "proportional_count": {"kind": "proportional", "n_tau": 3, "n_alpha": 8},
    "optimal_count": {"kind": "optimal", "n_tau": 4},
    "uniform_mass": {"kind": "uniform", "tau_mass": 0.3, "alpha_mass": 0.8},
    "proportional_mass": {"kind": "proportional", "tau_mass": 0.5, "alpha_mass": 0.9},
    "optimal_mass": {"kind": "optimal", "tau_mass": 0.5},
    "weights": {"kind": "custom", "n_tau": 1, "n_alpha": 2,
                "weights": [0.1, 0.2, 0.4, 0.2, 0.1]},
    # the two regimes of simulate.execute: every non-zero move is a sure reset
    # (|m| > 2*n_tau), and at k_max 64 no move is
    "uniform_tau0": {"kind": "uniform", "n_tau": 0, "n_alpha": 3},
    "uniform_tau40": {"kind": "uniform", "n_tau": 40, "n_alpha": 48},
}
GRID = ["--n-tau-grid", "0,1,2,4,8", "--n-alpha-grid", "0,1,3,6,12"]
# n_alpha past k_max (64) and past the reach n_tau + 64, with a repeated n_tau
WIDE_GRID = ["--n-tau-grid", "0,2,8,2", "--n-alpha-grid", "0,70,200"]
MODES = ("strict-paper", "full-coverage")
FINE_WIDTH = ["--bin-width-pct", "1e-6"]
# at this width nearly every move passes k_max, so h has its mass at the two
# tails and a proportional document finds none over its B_alpha
FINE_DOCUMENT = ("uniform_count", 0.1)
# a grid of about 2 billion bins, whose moves span up to 3e8 bins
TINY_WIDTH = ["--bin-width-pct", "1e-8"]

# the child: run every command of the JSON list on stdin through lpreset.cli.main
CHILD = """
import json, sys
import lpreset.cli
print(lpreset.cli.__file__, file=sys.stderr)
json.dump([lpreset.cli.main(argv) for argv in json.load(sys.stdin)], sys.stdout)
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def build_inputs(inputs: Path, seed: int) -> None:
    """Distributions and a price CSV from ``perfbench/gen.py``, its variants and the documents."""
    gen = ROOT / "perfbench" / "gen.py"
    env = child_env(ROOT / "src")
    for workload, sub in (("sweep", "dists"), ("backtest", "prices")):
        subprocess.run(
            [sys.executable, str(gen), "--workload", workload, "--seed", str(seed),
             "--count", "2" if workload == "sweep" else "1", "--out", str(inputs / sub)],
            env=env, check=True,
        )
    write_variants(inputs / "prices" / "prices_00000.csv")
    (inputs / "strategies").mkdir()
    for name, doc in DOCUMENTS.items():
        for a in RISKS:
            doc_a = {**doc, "params": {"a": a}}
            path = inputs / document_name(name, a)
            path.write_text(json.dumps(doc_a, sort_keys=True, indent=2) + "\n")


def document_name(name: str, a: float) -> str:
    return f"strategies/{name}_a{a:g}.json"


def missing_inputs(inputs: Path) -> list[str]:
    """The files of ``build_inputs`` that ``inputs`` lacks, say when an older checkout built it."""
    need = [f"dists/dist_{i:05d}.json" for i in range(2)]
    need += [f"prices/prices_00000{tag}.csv" for tag in ("", "_iso", "_crlf")]
    need += [document_name(name, a) for name in DOCUMENTS for a in RISKS]
    return [name for name in need if not (inputs / name).is_file()]


def write_variants(base: Path) -> None:
    """The ``iso`` and ``crlf`` variants of the ``timestamp,price`` CSV ``base``."""
    with open(base, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    iso = [f"{datetime.fromtimestamp(float(t), timezone.utc).isoformat()},{p}" for t, p in rows]
    crlf = [f" {t},{p}  " for t, p in rows]
    middle = len(rows) // 2
    crlf[middle] = '{},"{}"'.format(*rows[middle])
    for tag, lines, newline in (("iso", iso, "\n"), ("crlf", crlf, "\r\n")):
        with open(base.with_name(f"{base.stem}_{tag}.csv"), "w", newline="") as fh:
            fh.write(newline.join(["timestamp,price", *lines]) + newline)


def commands(inputs: Path, out: Path) -> list[list[str]]:
    """The fixed command set, with every output under ``out``."""
    dists = sorted((inputs / "dists").glob("dist_*.json"))
    prices = sorted((inputs / "prices").glob("prices_*.csv"))
    docs = sorted((inputs / "strategies").glob("*.json"))
    cmds = []
    for csv_path in prices:
        cmds.append(["fit", str(csv_path), "--out", str(out / f"fit_{csv_path.stem}.json")])
        cmds.append(["fit", str(csv_path), "--k-max", "16", "--drop-tails",
                     "--out", str(out / f"fit16_{csv_path.stem}.json")])
    for dist in dists:
        for a in map(str, RISKS):
            tag = f"{dist.stem}_a{a}"
            cmds += [
                ["optimize", str(dist), "--n-tau", "3", "--a", a,
                 "--out", str(out / f"optimize_count_{tag}.json")],
                ["optimize", str(dist), "--tau-mass", "0.5", "--a", a, "--mode", "full-coverage",
                 "--out", str(out / f"optimize_mass_{tag}.json")],
                ["sweep", str(dist), "--strategy", "proportional", *GRID, "--a", a,
                 "--out", str(out / f"sweep_proportional_{tag}.csv")],
                ["sweep", str(dist), "--strategy", "uniform", *GRID, "--a", a,
                 "--mode", "full-coverage", "--out", str(out / f"sweep_uniform_{tag}.csv")],
                ["sweep", str(dist), "--strategy", "optimal", *GRID, "--a", a,
                 "--out", str(out / f"sweep_optimal_{tag}.csv")],
                ["sweep", str(dist), "--tau-mass-grid", "0.2,0.5,0.9,1.0", "--a", a,
                 "--out", str(out / f"sweep_mass_{tag}.csv")],
            ]
            cmds += [
                ["sweep", str(dist), "--strategy", strategy, *WIDE_GRID, "--a", a,
                 "--mode", mode, "--out", str(out / f"sweep_wide_{strategy}_{mode}_{tag}.csv")]
                for strategy in ("proportional", "uniform") for mode in MODES
            ]
        for doc in docs:
            tag = f"{dist.stem}_{doc.stem}"
            cmds += [
                ["eval", str(dist), str(doc), "--out", str(out / f"eval_strict_{tag}.json")],
                ["eval", str(dist), str(doc), "--mode", "full-coverage",
                 "--out", str(out / f"eval_full_{tag}.json")],
                ["simulate", str(dist), str(doc), "--steps", "5000", "--seed", "11",
                 "--trace-out", str(out / f"trace_{tag}.csv"),
                 "--out", str(out / f"simulate_{tag}.json")],
            ]
    for csv_path in prices:
        for doc in docs:
            for anchor in ("first", "low"):
                tag = f"{csv_path.stem}_{doc.stem}_{anchor}"
                cmds.append(["backtest", str(csv_path), str(doc), "--grid-anchor", anchor,
                             "--band-out", str(out / f"band_{tag}.csv"),
                             "--out", str(out / f"backtest_{tag}.json")])
    # a grid of about 20 million bins for 10,000 rows: work must follow the rows
    base, doc = inputs / "prices" / "prices_00000.csv", inputs / document_name(*FINE_DOCUMENT)
    cmds.append(["fit", str(base), *FINE_WIDTH, "--out", str(out / "fit_fine.json")])
    for name, width in (("fine", FINE_WIDTH), ("tiny", TINY_WIDTH)):
        for anchor in ("first", "low"):
            cmds.append(["backtest", str(base), str(doc), *width, "--grid-anchor", anchor,
                         "--band-out", str(out / f"band_{name}_{anchor}.csv"),
                         "--out", str(out / f"backtest_{name}_{anchor}.json")])
    return cmds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the tree's src directory")
    parser.add_argument("--out", type=Path, required=True, help="new directory for the outputs")
    parser.add_argument("--inputs", type=Path, required=True,
                        help="input directory, built from --seed when it does not exist")
    parser.add_argument("--seed", type=int, default=1, help="perfbench/gen.py seed")
    args = parser.parse_args(argv)
    src, inputs, out = args.src.resolve(), args.inputs.resolve(), args.out.resolve()
    if not inputs.exists():
        build_inputs(inputs, args.seed)
    missing = missing_inputs(inputs)
    if missing:
        raise SystemExit(f"cli_outputs: {inputs} lacks {', '.join(missing)}; "
                         "give a new --inputs directory to build them")
    out.mkdir(parents=True)
    cmds = commands(inputs, out)
    run = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cmds), env=child_env(src),
        capture_output=True, text=True, check=True,
    )
    ran_from = Path(run.stderr.splitlines()[0]).resolve()
    if src not in ran_from.parents:
        raise SystemExit(f"cli_outputs: ran {ran_from}, not a module under {src}")
    codes = json.loads(run.stdout)
    with open(out / "exit_codes.txt", "w") as fh:
        for code, argv in zip(codes, cmds):
            line = " ".join(argv).replace(str(out), "OUT").replace(str(inputs), "IN")
            fh.write(f"{code} {line}\n")
    failed = sum(code != 0 for code in codes)
    print(f"{len(cmds)} commands, {failed} failed, outputs in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
