"""``tools/bench_pair.py`` end to end: one 1-second pair of one workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pair.py"


def test_one_pair_of_one_workload(tmp_path):
    # one copy serves as both trees, so both runs read the same code and inputs
    tree = tmp_path / "tree"
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tree), "--change", str(tree),
         "--seeds", "5", "--seconds", "1", "--workload", "montecarlo", "--out", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    doc = json.loads(out.read_text())
    assert doc["seeds"] == [5]
    assert [(run["side"], run["workload"]) for run in doc["runs"]] == [
        ("parent", "montecarlo"), ("change", "montecarlo")]
    for run in doc["runs"]:
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        assert run["provenance"]["seed"] == 5
        assert set(run["provenance"]["threads"].values()) == {"1"}
        assert {"git_sha", "source_sha256", "versions"} <= run["provenance"].keys()
    for key in ("source_sha256", "inputs_sha256"):
        assert doc["runs"][0]["provenance"][key] == doc["runs"][1]["provenance"][key]
    assert doc["runs"][0]["provenance"]["versions"]["lpreset_file"] == \
        str(Path("src", "lpreset", "cli.py"))
    summary = doc["summary"]["montecarlo"]
    assert set(summary) == {"op_p90_ms", "setup_s", "peak_rss_mb"}
    for name, metric in summary.items():
        value = {side: run["result"]["metrics"][name]["value"]
                 for side, run in zip(("parent", "change"), doc["runs"])}
        assert metric["pairs"] == 1
        assert metric["change_lower_in"] == int(value["change"] < value["parent"])
        for side in ("parent", "change"):
            assert metric[side] == {"q1": value[side], "median": value[side],
                                    "q3": value[side], "iqr": 0.0}
