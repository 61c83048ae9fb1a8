"""Byte-identity check of the ``lpreset`` CLI: fixed commands, all outputs in one directory.

    python3 tools/cli_outputs.py --src OLD/src --inputs IN --out out_old
    python3 tools/cli_outputs.py --src src --inputs IN --out out_new
    python3 tools/cli_diff.py out_old out_new    # exit 0: no output byte moved
    diff tools/cli_outputs.sha256 out_new/digest.sha256    # the committed bytes

When ``--inputs`` does not exist yet it is built at seed 7 with this
checkout's ``perfbench/gen.py``, which fits with this checkout's ``lpreset
fit``: two fitted distributions, one 10,000-row price CSV, two variants of
that CSV with the same prices, and the strategy documents below. The base
CSV is plain epoch seconds and takes the loader's numpy path. The ``iso``
variant has ISO-8601 timestamps; the ``crlf`` variant has CRLF line ends,
fields padded with spaces and one quoted price. Both take the row-by-row
path. Later runs reuse the directory, so every tree reads the same files;
a directory that lacks any of them (one an older checkout built) stops the
run with the list of what is missing. The commands then run in one child
process with ``--src`` as its PYTHONPATH and this environment otherwise;
``lpreset.cli`` pins the BLAS threads to 1 itself. Each command writes its
output with ``--out`` (and ``--trace-out``/``--band-out``) under ``--out``,
and ``exit_codes.txt`` lists each command with its exit code. A command
that raises instead of returning is listed with -1.
``stderr.txt`` holds, after a ``$`` line naming it, what each command wrote
to stderr (an ``error:`` line, a numpy warning, a traceback), so a new or
changed message shows up in ``tools/cli_diff.py`` too. In both files the
``--out``, ``--inputs`` and ``--src`` directories read ``OUT``, ``IN`` and
``SRC``. Last, ``digest.sha256`` holds the sha256 of every input and
output file, one ``sha256  IN/name`` or ``sha256  OUT/name`` line each,
sorted by name, under ``# `` lines computed in the child that name what
picks the last bits: the OpenBLAS core, numpy's dispatch targets enabled on
this CPU, the glibc version and the numpy version. ``tools/cli_outputs.sha256``
is that file; a change that moves an output byte regenerates
it and says why.

The command set: ``fit`` (two settings) and ``backtest --band-out`` with
both grid anchors for every price CSV and strategy document, the same
``fit`` and, for one document, ``backtest --band-out`` with both anchors
on the base CSV at ``--bin-width-pct 1e-6`` (a grid of about 20 million
bins for 10,000 rows), the same ``backtest --band-out`` at
``--bin-width-pct 1e-8`` (about 2 billion bins, moves of up to 3e8 bins),
``optimize`` (count and mass), ``sweep`` (proportional, uniform, optimal
and a mass grid, plus proportional, uniform and optimal in both modes over
an n_alpha grid that passes k_max and the reach, with a repeated n_tau),
and ``eval`` in both modes and ``simulate --trace-out`` for every strategy
document. On the first fit (k_max 64), at each a: ``optimize`` at n_tau 64
and 256 and an optimal ``sweep`` over both, chains of 129 and 513 states.
The documents are the constructor form with counts, the
constructor form with masses, two optimal documents that give B_alpha (as
a count and as a mass), the weights form, and two uniform documents at
n_tau 0 and 40 (every move a sure reset of ``simulate.execute``, and
none), each at risk aversion a in {-1, 0, 0.1, 15}. Inputs that once ended
in a numpy warning or a traceback close the set: ``eval``, ``optimize``
and ``simulate --trace-out`` at a = 1e308, where a*c overflows and u
saturates at 1/a; ``backtest --band-out`` of a document at kappa 1e307 and
ell 10, whose per-step sum passes the float range; and seventeen refusals,
which must exit 1 with one ``error:`` line: ``simulate --seed -1``;
``optimize`` and ``sweep`` at ``--kappa 1e200 --ell 1e200``, whose product
overflows; ``optimize`` at ``--kappa 1e-200 --ell 1e-200`` and
``backtest`` of a document with kappa 1e-320, whose products fall below
the smallest normal float; ``eval`` of a document with n_tau
99999999999999999999 and ``sweep`` with that n_alpha grid, counts past
every array size; ``simulate --trace-out`` of the kappa 1e307 document
at the default 50,000 steps, whose total reward overflows; and ``eval`` of
a distribution document that is a list, of one with k_max 1.9, and of
strategy documents whose params are ``"q"`` and ``{"a": "q"}``, so that
every form of a document error shows in ``stderr.txt``; and ``eval`` of
params that misspell kappa as ``kapa`` and of a distribution with an extra
field, each an unknown field, of a weights-form strategy that gives
``tau_mass`` and a uniform one that gives ``zzz``, keys their forms do not
read, and of a distribution with ``source_rows`` -5. The run exits 0 when
every command exits 0 and every such refusal exits 1. In all: 57
documents, 668 commands and 1,012 files with ``exit_codes.txt``,
``stderr.txt`` and ``digest.sha256``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # the perfbench/gen.py seed of the inputs, and so of the committed digest

RISKS = (-1.0, 0.0, 0.1, 15.0)
DOCUMENTS = {
    "uniform_count": {"kind": "uniform", "n_tau": 2, "n_alpha": 5},
    "proportional_count": {"kind": "proportional", "n_tau": 3, "n_alpha": 8},
    "optimal_count": {"kind": "optimal", "n_tau": 4},
    "uniform_mass": {"kind": "uniform", "tau_mass": 0.3, "alpha_mass": 0.8},
    "proportional_mass": {"kind": "proportional", "tau_mass": 0.5, "alpha_mass": 0.9},
    "optimal_mass": {"kind": "optimal", "tau_mass": 0.5},
    # the optimal strategy over a given B_alpha rather than the reach
    "optimal_window_count": {"kind": "optimal", "n_tau": 4, "n_alpha": 6},
    "optimal_window_mass": {"kind": "optimal", "tau_mass": 0.5, "alpha_mass": 0.9},
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
# chains of 129 and 513 states; B_alpha up to the reach 256 + 64
LARGE_N_TAUS = ("64", "256")
LARGE_GRID = ["--n-tau-grid", ",".join(LARGE_N_TAUS), "--n-alpha-grid", "64,320"]
MODES = ("strict-paper", "full-coverage")
FINE_WIDTH = ["--bin-width-pct", "1e-6"]
# at this width nearly every move passes k_max, so h has its mass at the two
# tails and a proportional document finds none over its B_alpha
FINE_DOCUMENT = ("uniform_count", 0.1)
# a grid of about 2 billion bins, whose moves span up to 3e8 bins
TINY_WIDTH = ["--bin-width-pct", "1e-8"]
# a*c overflows for every c above about 1.8: u saturates at 1/a, with no numpy warning
HUGE_A = 1e308
HUGE_A_DOCUMENT = "huge_a/uniform_count_a1e308.json"
# kappa * ell = 1e308: a step earns up to 1e308 / 11, so a path's sums pass the
# float range; the backtest mean is taken of scaled utilities, a simulate total is refused
OVERFLOW_DOCUMENT = "overflow/uniform_count_kappa1e307.json"
# documents that must be refused: kappa * ell below the smallest normal float,
# an n_tau past every array size, a distribution that is not an object and one
# whose k_max is not whole, params that are not an object or not numbers, and
# params and a distribution with an unknown field, strategy documents of each
# form with a key that form does not read, and a negative source_rows
REFUSED_DOCUMENTS = {
    "refused/uniform_count_kappa1e-320.json":
        {**DOCUMENTS["uniform_count"], "params": {"a": 0.1, "kappa": 1e-320, "ell": 1}},
    "refused/uniform_n_tau_1e20.json": {**DOCUMENTS["uniform_count"], "n_tau": 10**20 - 1},
    "refused/dist_list.json": [0.25, 0.5, 0.25],
    "refused/dist_k_max_1.9.json":
        {"k_max": 1.9, "bin_width_pct": 1.0, "probs": [0.25, 0.5, 0.25]},
    "refused/uniform_count_params_q.json": {**DOCUMENTS["uniform_count"], "params": "q"},
    "refused/uniform_count_a_q.json": {**DOCUMENTS["uniform_count"], "params": {"a": "q"}},
    "refused/uniform_count_kapa.json":
        {**DOCUMENTS["uniform_count"], "params": {"a": 0.1, "kapa": 2}},
    "refused/dist_extra.json":
        {"k_max": 1, "bin_width_pct": 1.0, "probs": [0.25, 0.5, 0.25], "extra": 1},
    "refused/weights_tau_mass.json":
        {**DOCUMENTS["weights"], "params": {"a": 0.1}, "tau_mass": 0.3},
    "refused/uniform_count_zzz.json": {**DOCUMENTS["uniform_count"], "zzz": 1},
    "refused/dist_source_rows_-5.json":
        {"k_max": 1, "bin_width_pct": 1.0, "probs": [0.25, 0.5, 0.25], "source_rows": -5},
}
# the documents outside strategies/
EXTRA_DOCUMENTS = {
    HUGE_A_DOCUMENT: {**DOCUMENTS["uniform_count"], "params": {"a": HUGE_A}},
    OVERFLOW_DOCUMENT:
        {**DOCUMENTS["uniform_count"], "params": {"a": 0, "kappa": 1e307, "ell": 10}},
    **REFUSED_DOCUMENTS,
}

# the child: run every command of the JSON list on stdin through lpreset.cli.main
# and give back its exit code and stderr; a command that raises (as a refusal may
# in an older tree) exits -1 and the rest run. Each command starts with fresh
# warning filters, so it shows a warning once, as its own process would. It also
# names what picks the last bits on this machine: the OpenBLAS core, the numpy
# dispatch targets this CPU enables, glibc's version and numpy's.
CHILD = """
import contextlib, ctypes, glob, io, json, os, sys, traceback, warnings
import lpreset.cli
import numpy
print(lpreset.cli.__file__, file=sys.stderr)
def blas_core():
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"
def machine():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f"openblas-core {blas_core()}",
            "numpy-dispatch " + " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t]),
            f"glibc {os.confstr('CS_GNU_LIBC_VERSION').split()[-1]}",
            f"numpy {numpy.__version__}"]
def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = lpreset.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, err.getvalue()
json.dump({"machine": machine(), "runs": [run(argv) for argv in json.load(sys.stdin)]},
          sys.stdout)
"""


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def build_inputs(inputs: Path) -> None:
    """Distributions and a price CSV from ``perfbench/gen.py``, its variants and the documents."""
    gen = ROOT / "perfbench" / "gen.py"
    env = child_env(ROOT / "src")
    for workload, sub in (("sweep", "dists"), ("backtest", "prices")):
        subprocess.run(
            [sys.executable, str(gen), "--workload", workload, "--seed", str(SEED),
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
    for name, doc in EXTRA_DOCUMENTS.items():
        (inputs / name).parent.mkdir(exist_ok=True)
        (inputs / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def document_name(name: str, a: float) -> str:
    return f"strategies/{name}_a{a:g}.json"


def missing_inputs(inputs: Path) -> list[str]:
    """The files of ``build_inputs`` that ``inputs`` lacks, say when an older checkout built it."""
    need = [f"dists/dist_{i:05d}.json" for i in range(2)]
    need += [f"prices/prices_00000{tag}.csv" for tag in ("", "_iso", "_crlf")]
    need += [document_name(name, a) for name in DOCUMENTS for a in RISKS]
    need += list(EXTRA_DOCUMENTS)
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
                ["optimize", str(dist), "--tau-mass", "0.5", "--a", a,
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
                for strategy in ("proportional", "uniform", "optimal") for mode in MODES
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
    # the largest chains of the set, on the first fit (k_max 64)
    for a in map(str, RISKS):
        tag = f"{dists[0].stem}_a{a}"
        cmds += [
            ["optimize", str(dists[0]), "--n-tau", n_tau, "--a", a,
             "--out", str(out / f"optimize_tau{n_tau}_{tag}.json")]
            for n_tau in LARGE_N_TAUS
        ]
        cmds.append(["sweep", str(dists[0]), "--strategy", "optimal", *LARGE_GRID, "--a", a,
                     "--out", str(out / f"sweep_large_{tag}.csv")])
    # a grid of about 20 million bins for 10,000 rows: work must follow the rows
    base, doc = inputs / "prices" / "prices_00000.csv", inputs / document_name(*FINE_DOCUMENT)
    cmds.append(["fit", str(base), *FINE_WIDTH, "--out", str(out / "fit_fine.json")])
    for name, width in (("fine", FINE_WIDTH), ("tiny", TINY_WIDTH)):
        for anchor in ("first", "low"):
            cmds.append(["backtest", str(base), str(doc), *width, "--grid-anchor", anchor,
                         "--band-out", str(out / f"band_{name}_{anchor}.csv"),
                         "--out", str(out / f"backtest_{name}_{anchor}.json")])
    # risk aversion so large that a*c overflows; these once warned
    dist, doc = dists[0], inputs / HUGE_A_DOCUMENT
    cmds += [
        ["eval", str(dist), str(doc), "--out", str(out / "eval_huge_a.json")],
        ["optimize", str(dist), "--n-tau", "3", "--a", repr(HUGE_A),
         "--out", str(out / "optimize_huge_a.json")],
        ["simulate", str(dist), str(doc), "--steps", "5000", "--seed", "11",
         "--trace-out", str(out / "trace_huge_a.csv"), "--out", str(out / "simulate_huge_a.json")],
    ]
    # a per-step sum past the float range: this once wrote Infinity
    cmds.append(["backtest", str(base), str(inputs / OVERFLOW_DOCUMENT),
                 "--band-out", str(out / "band_overflow.csv"),
                 "--out", str(out / "backtest_overflow.json")])
    return cmds


def refusals(inputs: Path, out: Path) -> list[list[str]]:
    """Commands that must end in one ``error:`` line and exit code 1, not a traceback."""
    dist = sorted((inputs / "dists").glob("dist_*.json"))[0]
    doc = inputs / document_name("uniform_count", 0.1)
    # kappa and ell are each finite and > 0, their product is not, or is 0
    huge = ["--kappa", "1e200", "--ell", "1e200"]
    tiny = ["--kappa", "1e-200", "--ell", "1e-200"]
    prices = inputs / "prices" / "prices_00000.csv"
    (tiny_doc, far_doc, list_dist, k_max_dist, params_q_doc, a_q_doc, kapa_doc, extra_dist,
     weights_tau_mass_doc, zzz_doc, rows_dist) = (inputs / name for name in REFUSED_DOCUMENTS)
    return [
        ["simulate", str(dist), str(doc), "--seed", "-1",
         "--out", str(out / "simulate_negative_seed.json")],
        ["optimize", str(dist), "--n-tau", "1", *huge,
         "--out", str(out / "optimize_kappa_ell_overflow.json")],
        ["sweep", str(dist), *GRID, *huge, "--out", str(out / "sweep_kappa_ell_overflow.csv")],
        ["optimize", str(dist), "--n-tau", "1", *tiny,
         "--out", str(out / "optimize_kappa_ell_underflow.json")],
        ["backtest", str(prices), str(tiny_doc),
         "--out", str(out / "backtest_kappa_ell_underflow.json")],
        # counts past every array size: refused before numpy sizes an array by them
        ["eval", str(dist), str(far_doc), "--out", str(out / "eval_n_tau_past_int64.json")],
        ["sweep", str(dist), "--n-tau-grid", "0,1", "--n-alpha-grid", str(10**20 - 1),
         "--out", str(out / "sweep_n_alpha_past_int64.csv")],
        # a total reward past the float range, refused before the trace is written
        ["simulate", str(dist), str(inputs / OVERFLOW_DOCUMENT),
         "--trace-out", str(out / "trace_overflow.csv"),
         "--out", str(out / "simulate_overflow.json")],
        # documents malformed as a whole or in one field
        ["eval", str(list_dist), str(doc), "--out", str(out / "eval_dist_list.json")],
        ["eval", str(k_max_dist), str(doc), "--out", str(out / "eval_dist_k_max_1.9.json")],
        ["eval", str(dist), str(params_q_doc), "--out", str(out / "eval_params_q.json")],
        ["eval", str(dist), str(a_q_doc), "--out", str(out / "eval_params_a_q.json")],
        # a misspelt field is refused, not read as its default
        ["eval", str(dist), str(kapa_doc), "--out", str(out / "eval_params_kapa.json")],
        ["eval", str(extra_dist), str(doc), "--out", str(out / "eval_dist_extra.json")],
        # a strategy key that its form does not read, and a negative row count
        ["eval", str(dist), str(weights_tau_mass_doc),
         "--out", str(out / "eval_weights_tau_mass.json")],
        ["eval", str(dist), str(zzz_doc), "--out", str(out / "eval_uniform_zzz.json")],
        ["eval", str(rows_dist), str(doc), "--out", str(out / "eval_dist_source_rows.json")],
    ]


def write_digest(path: Path, machine: list[str], roots: dict[str, Path]) -> None:
    """``path``: a ``# `` line per item of ``machine``, then ``sha256  NAME/file`` for
    every file under each of ``roots``, sorted by file name."""
    files = {f"{name}/{file.relative_to(root).as_posix()}": file
             for name, root in roots.items() for file in root.rglob("*") if file.is_file()}
    lines = [f"# {item}" for item in machine]
    lines += [f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  {name}"
              for name in sorted(files)]
    path.write_text("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the tree's src directory")
    parser.add_argument("--out", type=Path, required=True, help="new directory for the outputs")
    parser.add_argument("--inputs", type=Path, required=True,
                        help="input directory, built when it does not exist")
    args = parser.parse_args(argv)
    src, inputs, out = args.src.resolve(), args.inputs.resolve(), args.out.resolve()
    if not inputs.exists():
        build_inputs(inputs)
    missing = missing_inputs(inputs)
    if missing:
        raise SystemExit(f"cli_outputs: {inputs} lacks {', '.join(missing)}; "
                         "give a new --inputs directory to build them")
    out.mkdir(parents=True)
    cmds, refused = commands(inputs, out), refusals(inputs, out)
    want = [0] * len(cmds) + [1] * len(refused)
    cmds += refused
    run = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cmds), env=child_env(src),
        capture_output=True, text=True, check=True,
    )
    ran_from = Path(run.stderr.splitlines()[0]).resolve()
    if src not in ran_from.parents:
        raise SystemExit(f"cli_outputs: ran {ran_from}, not a module under {src}")
    child = json.loads(run.stdout)
    codes, errs = zip(*child["runs"])

    def portable(text: str) -> str:
        return text.replace(str(out), "OUT").replace(str(inputs), "IN").replace(str(src), "SRC")

    with open(out / "exit_codes.txt", "w") as fh, open(out / "stderr.txt", "w") as err_fh:
        for code, err, argv in zip(codes, errs, cmds):
            line = portable(" ".join(argv))
            fh.write(f"{code} {line}\n")
            if err:
                err_fh.write(f"$ {line}\n{portable(err)}")
    write_digest(out / "digest.sha256", child["machine"], {"IN": inputs, "OUT": out})
    failed = sum(code != expected for code, expected in zip(codes, want))
    print(f"{len(cmds)} commands ({len(refused)} to be refused), {failed} exited otherwise, "
          f"outputs in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
