"""perfbench: the ``lpreset`` CLI benchmark, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30  # all three

Each op is one ``lpreset`` command as a user runs it (two for ``sweep``),
on a fresh seeded input, run in-process through ``lpreset.cli.main``. A
run has three processes, each started by this script with the BLAS
thread variables pinned to 1:

1. ``gen.py`` writes the run's inputs (price CSVs, ``lpreset fit``
   distributions, strategy documents) from the seed;
2. ``worker.py`` reads them and runs ops for ``--seconds`` (and at least
   100 ops), checking every op's outputs, and times fresh interpreters
   that import ``lpreset.cli``;
3. this script prints the metrics, one per line with unit and sample
   count, then the result as one JSON line, and saves the full record
   with provenance under ``.perfbench/results/``.

Workloads (each stresses different layers; see ``BENCHMARK.json``):

* ``sweep``: ``sweep --strategy proportional`` over 8 n_tau x 7 n_alpha
  cells plus ``sweep --strategy optimal`` over the same 8 n_tau, on a fresh
  ``dist.json`` per op. Chain, landing, solve and evaluate layers.
* ``montecarlo``: ``simulate`` for 50k steps with a fresh seed per op. The
  per-step execution loop.
* ``backtest``: ``backtest --band-out`` on a fresh 10k-row price CSV per op.
  CSV ingest, fit, per-price binning, replay and band output.

End-to-end metrics (``--trace 0``):

* ``op_p90_ms``: p90 latency of one op, over every op of the run.
* ``setup_s``: p90 wall time for a fresh interpreter to import
  ``lpreset.cli`` and exit, which every command pays before any work; 30
  starts per run, in bursts spread over the run.
* ``peak_rss_mb``: ``ru_maxrss`` of the worker, which only reads inputs.

Both timings are p90s, not medians. The CPU of small shared machines runs
in a fast and a slow mode (about 1.7x apart) that last from seconds to
minutes. A median follows the mix of the two modes in a run and moved by a
third between runs of the same code; a p90 sits in the slow mode whenever a
run sees more than a tenth of it, and repeats. ``op_p50_ms`` and the
per-unit cost are therefore printed, with their sample counts, but not
gated.

Failures are counted by the JSON's ``attempted``/``failed`` and printed as
``op_fail_ratio``: an op fails when it raises, exits non-zero or fails its
output check, and a failed op counts as the slowest op in the p90.
``op_fail_ratio`` is no end-to-end metric because it is 0 on a correct
program.

The thread variables are pinned because multi-threaded OpenBLAS spends the
first calls of the small dense solves in thread wake-ups (hundreds of ms
against 2 ms single-threaded), which would be timed instead of the program.

``--trace 1`` wraps the public functions of every ``lpreset`` module (see
``tracing.py``), traces every other op, and reports per-layer metrics per
traced op, plus the tracing overhead: traced p90 / untraced p90 in the same
run. Spans are written to ``.perfbench/results/*.spans.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Pinned before numpy loads in every child: multi-threaded OpenBLAS spends the
# first calls of a small dense solve waking threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100
# Inputs generated per second of run: above today's fastest op rate, so the
# run ends on time, not on inputs.
OPS_PER_S = {"sweep": 45, "montecarlo": 50, "backtest": 12}
# work units per op, for the printed per-unit cost
UNITS = {"sweep": (64, "cell"), "montecarlo": (50_000, "step"), "backtest": (10_000, "row")}
GEN_TIMEOUT_S = 90
RUN_LIMIT_S = 170


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_p90_ms(latencies: list[float], failed: list[bool]) -> float:
    """p90 where a failed op counts as at least as slow as the slowest op."""
    worst = max(latencies)
    return 1e3 * quantile([worst if bad else t for t, bad in zip(latencies, failed)], 0.9)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    """Generate, measure and report one run; prints the result JSON last."""
    started = perf_counter()
    name = f"{workload}-seed{seed}-trace{trace}"
    work = WORK / f"run-{name}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{name}.json"
    env = pinned_env()
    count = max(MIN_OPS, math.ceil(seconds * OPS_PER_S[workload]))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--count", str(count), "--out", str(work / "inputs")],
            env=env, cwd=ROOT, check=True, timeout=GEN_TIMEOUT_S, stdout=sys.stderr,
        )
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--inputs", str(work / "inputs"), "--work", str(work), "--root", str(ROOT),
             "--seconds", str(seconds), "--trace", str(trace), "--result", str(record_path)],
            env=env, cwd=ROOT, check=True, stdout=sys.stderr,
            timeout=RUN_LIMIT_S - (perf_counter() - started),
        )
        manifest = json.loads((work / "inputs" / "manifest.json").read_text())
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = json.loads(record_path.read_text())
    attempted, failed = run["attempted"], run["failed"]
    failed_flags = [False] * attempted
    for i in run["failed_ops"]:
        failed_flags[i] = True
    latencies = run["latency_s"]
    if trace:
        on = run["traced"]
        values = dict(run["layers"])
        values["trace.traced_op_p90_ms"] = op_p90_ms(
            [t for t, f in zip(latencies, on) if f], [b for b, f in zip(failed_flags, on) if f]
        )
        values["trace.untraced_op_p90_ms"] = op_p90_ms(
            [t for t, f in zip(latencies, on) if not f],
            [b for b, f in zip(failed_flags, on) if not f],
        )
        values["trace.overhead_ratio"] = (
            values["trace.traced_op_p90_ms"] / values["trace.untraced_op_p90_ms"]
        )
        wanted = spec["per_layer"]
        counts = {"": sum(on)}
    else:
        values = {
            "op_p90_ms": op_p90_ms(latencies, failed_flags),
            "setup_s": quantile(run["setup_s"], 0.9),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        counts = {"setup_s": len(run["setup_s"]), "peak_rss_mb": 1, "": attempted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    run["provenance"] = {
        "threads": run.pop("threads"),
        "cpu_count": run.pop("cpu_count"),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "versions": run.pop("versions"),
        "seed": seed,
        "ops": attempted,
        "inputs_sha256": manifest["sha256"],
    }
    run["metrics"] = metrics
    record_path.write_text(json.dumps(run, sort_keys=True, indent=1) + "\n")

    units, unit = UNITS[workload]
    p50_ms = 1e3 * statistics.median(latencies)
    prov = run["provenance"]
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{attempted} ops in {run['measured_s']:.1f} s, {failed} failed")
    facts = {**prov["threads"], "cpus": prov["cpu_count"], "git": prov["git_sha"],
             **prov["versions"], "inputs": f"{len(manifest['sha256'])} files"}
    print("  " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in run["failures"][:5]:
        print(f"  failed {line}")
    for key, metric in metrics.items():
        n = counts.get(key, counts[""])
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']:<6} (n={n})")
    print(f"  {'op_fail_ratio':<48} {failed / attempted:>14.6g} {'ratio':<6} (n={attempted})")
    print(f"  {'op_p50_ms (not gated)':<48} {p50_ms:>14.6g} {'ms':<6} (n={attempted})")
    print(f"  {'us per ' + unit + ' at p50 (not gated)':<48} "
          f"{1e3 * p50_ms / units:>14.6g} {'us':<6} (n={attempted})")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one run of one perfbench workload")
    parser.add_argument("--workload", choices=[*OPS_PER_S, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpreset" / "cli.py").is_file():
        print(f"perfbench: no lpreset sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = list(OPS_PER_S) if args.workload == "all" else [args.workload]
    return max(run_one(w, args.seed, args.seconds, args.trace, spec) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
