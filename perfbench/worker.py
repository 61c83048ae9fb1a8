"""The measured workload process: runs ``lpreset`` CLI commands in-process.

Started by ``run.py`` on a directory written by ``gen.py``; it only reads
those files, so its peak RSS excludes input generation. Each op is one
user-level command (two for ``sweep``) run through ``lpreset.cli.main``,
timed without interpreter start-up. Outputs are checked after the timer
stops; a failed check or a raised error counts the op as failed and the run
goes on. Untraced runs also time fresh interpreters importing
``lpreset.cli``, in bursts between ops. Traced runs alternate traced and
untraced ops to give the tracing overhead.

    python3 perfbench/worker.py --workload sweep --inputs DIR --seconds 30 \
        --trace 0 --result result.json
"""

import argparse
import csv
import gc
import json
import math
import os
import platform
import resource
import select
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import lpreset.cli
from tracing import Tracer

# run.py pins these to 1 before numpy loads (importing run here would add its
# imports to the measured peak RSS)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100  # at least 10 samples beyond the p90
# Set-up probes run in bursts spread over the whole run, so that they see the
# same CPU speed mix as the ops, while few ops follow a probe with cold caches.
MIN_PROBES = 30
PROBE_BURST = 5
PROBE_EVERY_S = 4.0
PROBE_TIMEOUT_S = 30
SETUP_CODE = "import lpreset.cli"

SWEEP_N_TAU = "0,1,2,4,8,16,32,64"
SWEEP_N_ALPHA = "4,8,16,32,64,96,128"
SIM_STEPS = 50_000
MC_MAX_Z = 5.0


class Workload:
    """Commands of one op and the check of their outputs."""

    def __init__(self, inputs: Path, out: Path, manifest: dict) -> None:
        self.inputs = inputs
        self.out = out
        self.manifest = manifest
        self.strategy = str(inputs / manifest["strategy"]) if manifest["strategy"] else None

    def prepare(self) -> None:
        """Untimed work needed by the checks, done before the first op."""

    def commands(self, op: dict) -> list[list[str]]:
        raise NotImplementedError

    def check(self, op: dict) -> str | None:
        """None when the op's outputs are right, else what is wrong."""
        raise NotImplementedError


class Sweep(Workload):
    def commands(self, op: dict) -> list[list[str]]:
        dist = str(self.inputs / op["dist"])
        common = ["--n-tau-grid", SWEEP_N_TAU, "--a", "0.1", "--mode", "full-coverage"]
        return [
            ["sweep", dist, "--strategy", "proportional", "--n-alpha-grid", SWEEP_N_ALPHA,
             *common, "--out", str(self.out / "proportional.csv")],
            ["sweep", dist, "--strategy", "optimal", "--n-alpha-grid", "64",
             *common, "--out", str(self.out / "optimal.csv")],
        ]

    def check(self, op: dict) -> str | None:
        prop = _read_sweep(self.out / "proportional.csv")
        opt = _read_sweep(self.out / "optimal.csv")
        n_taus = [int(t) for t in SWEEP_N_TAU.split(",")]
        n_alphas = SWEEP_N_ALPHA.count(",") + 1
        if sorted(opt) != n_taus or [len(prop.get(t, [])) for t in n_taus] != [n_alphas] * len(n_taus):
            return "sweep grid incomplete"
        for n_tau in n_taus:
            (best,) = opt[n_tau]
            if not all(math.isfinite(v) for v in prop[n_tau] + [best]):
                return f"non-finite E_u at n_tau={n_tau}"
            if best < max(prop[n_tau]):
                return f"optimal E_u {best!r} < proportional {max(prop[n_tau])!r} at n_tau={n_tau}"
        return None


def _read_sweep(path: Path) -> dict[int, list[float]]:
    rows: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["n_tau"]), []).append(float(row["expected_utility"]))
    return rows


class MonteCarlo(Workload):
    def prepare(self) -> None:
        # analytic full-coverage E_u of each distribution, the check's reference
        self.expected = {}
        for dist in sorted({op["dist"] for op in self.manifest["ops"]}):
            out = self.out / "eval.json"
            code = lpreset.cli.main(
                ["eval", str(self.inputs / dist), self.strategy,
                 "--mode", "full-coverage", "--out", str(out)]
            )
            if code != 0:
                raise RuntimeError(f"lpreset eval failed on {dist}")
            self.expected[dist] = json.loads(out.read_text())["expected_utility"]
            out.unlink()

    def commands(self, op: dict) -> list[list[str]]:
        return [
            ["simulate", str(self.inputs / op["dist"]), self.strategy,
             "--steps", str(SIM_STEPS), "--seed", str(op["sim_seed"]),
             "--out", str(self.out / "sim.json")]
        ]

    def check(self, op: dict) -> str | None:
        report = json.loads((self.out / "sim.json").read_text())
        if report["steps"] != SIM_STEPS:
            return f"simulated {report['steps']} steps, expected {SIM_STEPS}"
        gap = abs(report["mean_utility_per_step"] - self.expected[op["dist"]])
        if not gap <= MC_MAX_Z * report["std_error"]:
            return f"MC mean off the analytic E_u by {gap!r} (std error {report['std_error']!r})"
        return None


class Backtest(Workload):
    def commands(self, op: dict) -> list[list[str]]:
        return [
            ["backtest", str(self.inputs / op["prices"]), self.strategy,
             "--band-out", str(self.out / "band.csv"), "--out", str(self.out / "report.json")]
        ]

    def check(self, op: dict) -> str | None:
        report = json.loads((self.out / "report.json").read_text())
        steps, resets = report["steps"], report["resets"]
        if steps != op["rows"] - 1:
            return f"replayed {steps} steps for {op['rows']} rows"
        if not 0 <= resets <= steps:
            return f"resets {resets} outside [0, {steps}]"
        with open(self.out / "band.csv", "rb") as fh:
            band_lines = sum(1 for _ in fh)
        if band_lines != steps + 1:
            return f"band CSV has {band_lines} lines, expected {steps + 1}"
        if not math.isfinite(report["ratio"]):
            return f"ratio {report['ratio']!r} is not finite"
        return None


WORKLOADS = {"sweep": Sweep, "montecarlo": MonteCarlo, "backtest": Backtest}


def probe_setup(root: Path) -> float:
    """Wall seconds for a fresh interpreter to import ``lpreset.cli`` and exit.

    The end is taken when the child's stdout reaches end-of-file, that is
    when it exits: ``Popen.wait`` with a timeout polls in sleeps of up to
    50 ms, which would round every sample up to that grid.
    """
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], cwd=root, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    ) as proc:
        exited, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        elapsed = perf_counter() - start
        if not exited:
            proc.kill()
        code = proc.wait()
    if not exited or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def run(args: argparse.Namespace) -> dict:
    manifest = json.loads((args.inputs / "manifest.json").read_text())
    out = args.work / "out"
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.inputs, out, manifest)
    workload.prepare()
    ops = manifest["ops"]
    plans = [workload.commands(op) for op in ops]
    tracer = Tracer() if args.trace else None

    latencies: list[float] = []
    traced: list[bool] = []
    failures: list[str] = []
    failed_ops: list[int] = []
    setup: list[float] = []
    gc.collect()
    started = last_probe = perf_counter()
    i = 0
    while i < len(ops) and (i < MIN_OPS or perf_counter() - started < args.seconds):
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.op_id = i + 1
            tracer.install()
        error = None
        t0 = perf_counter()
        try:
            for argv in plans[i]:
                code = lpreset.cli.main(argv)
                if code != 0:
                    error = f"exit code {code} from {argv[0]}"
                    break
        except Exception:  # an op that raises is counted, not fatal
            error = traceback.format_exc().strip().splitlines()[-1]
            if len(failures) < 3:
                traceback.print_exc()
        elapsed = perf_counter() - t0
        if on:
            tracer.uninstall()
        if error is None:
            try:
                error = workload.check(ops[i])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        for leftover in out.iterdir():
            leftover.unlink()
        latencies.append(elapsed)
        traced.append(on)
        if error is not None:
            failed_ops.append(i)
            failures.append(f"op {i}: {error}")
        i += 1
        if tracer is None and perf_counter() - last_probe >= PROBE_EVERY_S:
            setup.extend(probe_setup(args.root) for _ in range(PROBE_BURST))
            last_probe = perf_counter()
        gc.collect()  # collect this op's garbage outside the next op's timer
    measured_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while tracer is None and len(setup) < MIN_PROBES:
        setup.append(probe_setup(args.root))

    result = {
        "workload": args.workload,
        "attempted": len(latencies),
        "failed": len(failed_ops),
        "failed_ops": failed_ops,
        "failures": failures[:20],
        "measured_s": measured_s,
        "latency_s": latencies,
        "traced": traced,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": _blas_version(),
            "lpreset_file": lpreset.cli.__file__,
        },
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }
    if tracer is not None:
        n_traced = sum(traced)
        result["layers"] = tracer.per_op(n_traced)
        spans_path = args.result.with_suffix(".spans.csv")
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path)
    return result


def _blas_version() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one perfbench workload run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    if any(os.environ.get(var) != "1" for var in THREAD_VARS):
        parser.error(f"start through run.py, which sets {', '.join(THREAD_VARS)} to 1")
    result = run(args)
    args.result.write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
