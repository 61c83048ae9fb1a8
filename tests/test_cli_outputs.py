"""The CLI's bytes against the committed digest of ``tools/cli_outputs.py``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_outputs.py"
COMMITTED = ROOT / "tools" / "cli_outputs.sha256"
sys.path.insert(0, str(TOOL.parent))
from cli_diff import read_digest  # noqa: E402


def test_outputs_match_the_committed_digest(tmp_path):
    out = tmp_path / "out"
    try:  # the outputs take about 270 MB: keep only the digest
        run = subprocess.run(
            [sys.executable, str(TOOL), "--src", str(ROOT / "src"),
             "--inputs", str(tmp_path / "in"), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        header, got = read_digest((out / "digest.sha256").read_text())
    finally:
        shutil.rmtree(tmp_path, ignore_errors=True)
    want_header, want = read_digest(COMMITTED.read_text())
    if header != want_header:
        pytest.skip(f"the digest was made on {'; '.join(want_header)}, "
                    f"this machine is {'; '.join(header)}")
    moved = sorted(name for name in {**got, **want} if got.get(name) != want.get(name))
    assert not moved, f"{len(moved)} files moved, the first: {moved[:10]}"
