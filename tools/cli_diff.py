"""What moved between two ``tools/cli_outputs.py`` trees, file by file.

    python3 tools/cli_diff.py out_old out_new

Prints each file present on one side only and each file whose bytes
differ. For a JSON file it prints each moved field, as a path into the
document, with its relative difference; for a CSV file, the count of moved
cells and their largest relative difference. The relative difference of two
numbers is |x - y| / max(|x|, |y|); a moved value that is not a number on
both sides (text, a missing field or row) counts as inf. The last line is
the count of files that differ and the largest relative difference over
all of them. The exit code is 1 when anything differs, 0 when the trees
are byte-identical, and 2 when the two arguments are not directories.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def relative(x, y) -> float:
    """|x - y| / max(|x|, |y|) for two numbers; 0 when equal, inf when not numbers."""
    if x == y or (x != x and y != y):  # equal, or both NaN
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if not numbers or not all(map(math.isfinite, (x, y))):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def fields(doc, path: str = ""):
    """(path, value) of each leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from fields(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from fields(value, f"{path}[{i}]")
    else:
        yield path, doc


def json_moves(old: bytes, new: bytes) -> list[tuple[str, float]]:
    """(field, relative difference) of each field that moved."""
    a, b = (dict(fields(json.loads(text))) for text in (old, new))
    missing = object()
    moves = [(key, relative(a.get(key, missing), b.get(key, missing))) for key in {**a, **b}]
    return [(key, rel) for key, rel in moves if rel > 0.0]


def cell(text: str):
    """A CSV cell as a float when it reads as one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def csv_moves(old: bytes, new: bytes) -> list[float]:
    """Relative difference of each cell that moved; a cell on one side only is inf."""
    a, b = (list(csv.reader(io.StringIO(text.decode()))) for text in (old, new))
    moves = []
    for i in range(max(len(a), len(b))):
        row_a = a[i] if i < len(a) else []
        row_b = b[i] if i < len(b) else []
        for j in range(max(len(row_a), len(row_b))):
            if j >= len(row_a) or j >= len(row_b):
                moves.append(math.inf)
            elif row_a[j] != row_b[j]:
                moves.append(relative(cell(row_a[j]), cell(row_b[j])))
    return [rel for rel in moves if rel > 0.0]


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], int, float]:
    """The report lines, the count of files that differ and the largest relative difference."""
    old_names, new_names = (
        {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}
        for d in (old_dir, new_dir)
    )
    lines = [f"only in {old_dir}: {name}" for name in sorted(old_names - new_names)]
    lines += [f"only in {new_dir}: {name}" for name in sorted(new_names - old_names)]
    differ, worst = len(lines), math.inf if lines else 0.0
    for name in sorted(old_names & new_names):
        old, new = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
        if old == new:
            continue
        differ += 1
        if name.endswith(".json"):
            moves = json_moves(old, new)
            lines += [f"{name}: {key} {rel:.3g}" for key, rel in sorted(moves)]
            rels = [rel for _, rel in moves]
        elif name.endswith(".csv"):
            rels = csv_moves(old, new)
            if rels:
                lines.append(f"{name}: {len(rels)} cells moved, max {max(rels):.3g}")
        else:
            rels = [math.inf]
            lines.append(f"{name}: bytes differ")
        if not rels:
            lines.append(f"{name}: bytes differ, no value moved")
        worst = max([worst, *rels])
    return lines, differ, worst


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(d).is_dir() for d in args):
        print("usage: python3 tools/cli_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, differ, worst = compare(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    print(f"{differ} files differ; largest relative difference {worst:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
