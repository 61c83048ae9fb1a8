"""Self-tests of the benchmark: seeded inputs and exact per-op layer counts.

    python3 -m pytest -q perfbench/test_perfbench.py

The call counts pinned here repeat exactly for a fixed seed, so later
count-based claims can rest on them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import lpreset.cli  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def _traced_counts(workload: str, tmp_path: Path, count: int) -> list[dict]:
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir(parents=True)
    manifest = gen.generate(workload, SEED, count, inputs)
    runner = worker.WORKLOADS[workload](inputs, out, manifest)
    runner.prepare()
    per_op = []
    for op in manifest["ops"]:
        tracer = Tracer()
        tracer.install()
        try:
            codes = [lpreset.cli.main(argv) for argv in runner.commands(op)]
        finally:
            tracer.uninstall()
        assert codes == [0] * len(codes)
        assert runner.check(op) is None
        layers = tracer.per_op(1)
        per_op.append({k: v for k, v in layers.items() if k.endswith((".calls", ".errors"))})
    return per_op


def test_same_seed_gives_identical_files(tmp_path: Path) -> None:
    for workload in gen.WORKLOADS:
        first = gen.generate(workload, SEED, 3, tmp_path / f"{workload}-a")
        again = gen.generate(workload, SEED, 3, tmp_path / f"{workload}-b")
        other = gen.generate(workload, SEED + 1, 3, tmp_path / f"{workload}-c")
        assert first == again
        assert first["sha256"] != other["sha256"]
        for name in first["sha256"]:
            a = (tmp_path / f"{workload}-a" / name).read_bytes()
            assert a == (tmp_path / f"{workload}-b" / name).read_bytes()


def test_sweep_counts_per_op(tmp_path: Path) -> None:
    per_op = _traced_counts("sweep", tmp_path, 3)
    for counts in per_op:
        assert counts["markov.build_reset_chain.calls"] == 72
        assert counts["markov.landing_over.calls"] == 72
        assert counts["utility.expected_utility.calls"] == 64
        assert counts["optimizer.solve.calls"] == 8
        assert counts["cli.main.calls"] == 2
        assert all(v == 0 for k, v in counts.items() if k.endswith(".errors"))
    assert per_op == _traced_counts("sweep", tmp_path / "again", 3)


def test_backtest_bins_every_row(tmp_path: Path) -> None:
    for counts in _traced_counts("backtest", tmp_path, 2):
        assert counts["bins.BinGrid.price_to_bin.calls"] == gen.BACKTEST_ROWS
        assert counts["utility.Allocation.weight.calls"] == gen.BACKTEST_ROWS - 1
        assert counts["backtest.BacktestReport.write_band_csv.calls"] == 1


def test_montecarlo_counts_every_step(tmp_path: Path) -> None:
    for counts in _traced_counts("montecarlo", tmp_path, 2):
        assert counts["utility.exp_utility.calls"] == worker.SIM_STEPS
        assert counts["utility.Allocation.weight.calls"] == worker.SIM_STEPS
        assert counts["simulate.run_strategy.calls"] == 1


def test_uninstall_restores_every_function() -> None:
    import lpreset.markov
    import lpreset.strategies

    before = (lpreset.markov.build_reset_chain, lpreset.strategies.build_reset_chain)
    tracer = Tracer()
    tracer.install()
    assert lpreset.strategies.build_reset_chain is not before[1]
    tracer.uninstall()
    assert (lpreset.markov.build_reset_chain, lpreset.strategies.build_reset_chain) == before


def test_errors_are_counted_once_per_module(tmp_path: Path) -> None:
    bad_dist = tmp_path / "bad_dist.json"
    bad_dist.write_text(json.dumps({"k_max": 1, "probs": [0.5, 0.5], "bin_width_pct": 1.0}))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"k_max": 1, "probs": [0.25, 0.5, 0.25], "bin_width_pct": 1.0}))
    bad_strategy = tmp_path / "strategy.json"
    bad_strategy.write_text(json.dumps({"kind": "nope"}))
    tracer = Tracer()
    tracer.install()
    try:
        codes = [
            lpreset.cli.main(["eval", str(bad_dist), str(bad_strategy)]),
            lpreset.cli.main(["eval", str(dist), str(bad_strategy)]),
        ]
    finally:
        tracer.uninstall()
    layers = tracer.per_op(1)
    assert codes == [1, 1]
    assert layers["cli.errors"] == 2
    assert layers["distribution.errors"] == 1
    assert layers["markov.errors"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_sources(tmp_path: Path, trace: str) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
