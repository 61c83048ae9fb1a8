"""Alternating parent/change pairs of perfbench runs, summed up in one BENCH file.

    python3 tools/bench_pair.py --parent PARENT_TREE [--change TREE] \\
        --seeds 100 101 102 --seconds 30 --workload all --out BENCH_<n>.json

Per seed, ``perfbench/run.py --workload W --seconds T --seed S`` runs in each
tree, the parent first at the 1st, 3rd, ... seed. Kept per run and workload:
run.py's last-line result and its record's provenance. Per workload and
end-to-end metric: each side's quartiles over the seeds, and the pairs in
which the change reads lower. The file is rewritten after each pair.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    """Each workload's last-line result and its record's provenance, for one run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout
    runs, record = {}, {}
    for line in out.splitlines():
        if line.startswith("  record: "):
            record = json.loads((tree / line.removeprefix("  record: ")).read_text())
        elif line.startswith("{"):
            runs[record["workload"]] = {"result": json.loads(line),
                                        "provenance": provenance(record["provenance"], tree)}
    return runs


def provenance(prov: dict, tree: Path) -> dict:
    """A record's provenance with its input hashes folded into one sha256 (the
    same on both sides of a pair) and the package's path taken relative to the tree."""
    inputs = json.dumps(prov["inputs_sha256"], sort_keys=True).encode()
    versions = {**prov["versions"],
                "lpreset_file": os.path.relpath(prov["versions"]["lpreset_file"], tree)}
    return {**prov, "inputs_sha256": hashlib.sha256(inputs).hexdigest(), "versions": versions}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def summary(runs: list[dict]) -> dict:
    values = {}  # (workload, metric) -> side -> seed -> value
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            by_side = values.setdefault((run["workload"], name), {side: {} for side in SIDES})
            by_side[run["side"]][run["seed"]] = metric["value"]
    out = {}
    for (workload, name), by_side in values.items():
        old, new = by_side["parent"], by_side["change"]
        out.setdefault(workload, {})[name] = {
            "parent": quartiles(list(old.values())), "change": quartiles(list(new.values())),
            "pairs": len(old), "change_lower_in": sum(new[seed] < old[seed] for seed in old),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = []
    for i, seed in enumerate(args.seeds):
        for side in SIDES[::-1] if i % 2 else SIDES:
            for workload, run in perfbench(getattr(args, side), args.workload, seed,
                                           args.seconds).items():
                runs.append({"seed": seed, "side": side, "workload": workload, **run})
        doc = {"command": f"python3 perfbench/run.py --workload {args.workload} "
                          f"--seconds {args.seconds:g} --seed S",
               "seeds": args.seeds[:i + 1], "summary": summary(runs), "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
