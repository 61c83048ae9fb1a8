import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_diff  # noqa: E402


def tree(root: Path, files: dict[str, str]) -> str:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return str(root)


BASE = {
    "run.json": '{"mean": 1.0, "steps": 5, "params": {"a": [0.1, 2.0]}}\n',
    "band.csv": "step,price\r\n1,100.0\r\n2,101.0\r\n",
    "exit_codes.txt": "0 fit\n",
}


def test_identical_trees_exit_0(tmp_path, capsys):
    old, new = tree(tmp_path / "old", BASE), tree(tmp_path / "new", BASE)
    assert cli_diff.main([old, new]) == 0
    assert capsys.readouterr().out == "0 files differ; largest relative difference 0\n"


def test_each_kind_of_move_is_reported(tmp_path, capsys):
    old = tree(tmp_path / "old", BASE)
    new = tree(tmp_path / "new", {
        "run.json": '{"mean": 1.0000000000000002, "steps": 5, "params": {"a": [0.1, 2.5]}}\n',
        "band.csv": "step,price\r\n1,100.0\r\n2,100.0\r\n",
        "extra.json": "{}\n",
    })
    assert cli_diff.main([old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"only in {old}: exit_codes.txt",
        f"only in {new}: extra.json",
        "band.csv: 1 cells moved, max 0.0099",
        "run.json: mean 2.22e-16",
        "run.json: params.a[1] 0.2",
        "4 files differ; largest relative difference inf",
    ]


@pytest.mark.parametrize("x, y, want", [
    (1.0, 1.0, 0.0), (2.0, 4.0, 0.5), (-1.0, 1.0, 2.0), (1.0, "1.0", float("inf")),
    (float("nan"), float("nan"), 0.0), (1.0, float("inf"), float("inf")),
])
def test_relative_difference(x, y, want):
    assert cli_diff.relative(x, y) == want


def test_arguments_that_are_not_directories_exit_2(tmp_path, capsys):
    assert cli_diff.main([str(tmp_path)]) == 2
    assert cli_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("usage:")
