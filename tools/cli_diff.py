"""What moved between two ``tools/cli_outputs.py`` trees, file by file.

    python3 tools/cli_diff.py out_old out_new

Prints each file present on one side only and each file whose bytes
differ. For a JSON file it prints each moved field, as a path into the
document, with its relative difference; for a CSV file, the count of moved
cells and their largest relative difference. When a CSV file's header row
differs, each column that one side lacks is printed by name and the columns
both sides have are compared by name, so a dropped column moves no other
cell; a column on one side only adds no relative difference. The relative
difference of two numbers is |x - y| / max(|x|, |y|); a moved value that is
not a number on both sides (text, a missing field or row) counts as inf.
``digest.sha256``, the list of hashes that ``tools/cli_outputs.py`` writes, is
read as file name -> sha256: each ``# `` machine line on one side only is
printed, and each file whose hash moved or is on one side only, except the
``OUT/`` files, which the report compares itself; the digest is not counted
as a file that differs. The last line is the count of files that differ and
the largest relative difference over all of them. The exit code is 1 when
anything differs, 0 when the trees are byte-identical, and 2 when the two
arguments are not directories. A reader that closes the pipe early
(``| head``) ends the report quietly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
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


def by_name(rows: list[list[str]], names: list[str]) -> list[list[str]]:
    """The rows cut to the columns ``names``, in that order, found by the header row.

    A row too short for a column has an empty cell there."""
    at = [rows[0].index(name) for name in names]
    return [[row[i] if i < len(row) else "" for i in at] for row in rows]


def csv_moves(old: bytes, new: bytes) -> tuple[list[str], list[str], list[float]]:
    """The columns only in OLD, those only in NEW, and the relative difference
    of each cell that moved; a cell on one side only is inf.

    When the header rows differ, the columns both name are matched by name
    and the others are only listed; otherwise cells match by position."""
    a, b = (list(csv.reader(io.StringIO(text.decode()))) for text in (old, new))
    only_old = only_new = []
    if a and b and a[0] != b[0]:
        only_old = [name for name in a[0] if name not in b[0]]
        only_new = [name for name in b[0] if name not in a[0]]
        shared = [name for name in a[0] if name in b[0]]
        a, b = by_name(a, shared), by_name(b, shared)
    moves = []
    for i in range(max(len(a), len(b))):
        row_a = a[i] if i < len(a) else []
        row_b = b[i] if i < len(b) else []
        for j in range(max(len(row_a), len(row_b))):
            if j >= len(row_a) or j >= len(row_b):
                moves.append(math.inf)
            elif row_a[j] != row_b[j]:
                moves.append(relative(cell(row_a[j]), cell(row_b[j])))
    return only_old, only_new, [rel for rel in moves if rel > 0.0]


DIGEST = "digest.sha256"


def read_digest(text: str) -> tuple[list[str], dict[str, str]]:
    """The ``# `` machine lines of a digest, and its sha256 by file name."""
    lines = text.splitlines()
    machine = [line for line in lines if line.startswith("# ")]
    return machine, dict(line.split("  ", 1)[::-1] for line in lines if line not in machine)


def digest_lines(old: bytes, new: bytes, old_dir: Path, new_dir: Path) -> list[str]:
    """Each machine line on one side only, then each file outside ``OUT/`` whose
    hash moved or is on one side only."""
    (machine_a, a), (machine_b, b) = read_digest(old.decode()), read_digest(new.decode())
    lines = [f"{DIGEST}: {line!r} only in {old_dir}"
             for line in machine_a if line not in machine_b]
    lines += [f"{DIGEST}: {line!r} only in {new_dir}"
              for line in machine_b if line not in machine_a]
    for name in sorted({**a, **b}):
        if name.startswith("OUT/") or a.get(name) == b.get(name):
            continue
        if name in a and name in b:
            lines.append(f"{DIGEST}: {name} hash differs")
        else:
            lines.append(f"{DIGEST}: {name} only in {old_dir if name in a else new_dir}")
    return lines


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
        if name == DIGEST:
            lines += digest_lines(old, new, old_dir, new_dir)
            continue
        differ += 1
        said = len(lines)
        if name.endswith(".json"):
            moves = json_moves(old, new)
            lines += [f"{name}: {key} {rel:.3g}" for key, rel in sorted(moves)]
            rels = [rel for _, rel in moves]
        elif name.endswith(".csv"):
            only_old, only_new, rels = csv_moves(old, new)
            lines += [f"{name}: column {col!r} only in {old_dir}" for col in only_old]
            lines += [f"{name}: column {col!r} only in {new_dir}" for col in only_new]
            if rels or len(lines) > said:
                top = f", max {max(rels):.3g}" if rels else ""
                lines.append(f"{name}: {len(rels)} cells moved{top}")
        else:
            rels = [math.inf]
            lines.append(f"{name}: bytes differ")
        if len(lines) == said:
            lines.append(f"{name}: bytes differ, no value moved")
        worst = max([worst, *rels])
    return lines, differ, worst


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(d).is_dir() for d in args):
        print("usage: python3 tools/cli_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, differ, worst = compare(Path(args[0]), Path(args[1]))
    try:
        for line in lines:
            print(line)
        print(f"{differ} files differ; largest relative difference {worst:.3g}", flush=True)
    except BrokenPipeError:  # the reader closed early, as `| head` does: stop quietly
        # stdout's last buffered bytes would fail again at exit, so it points at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
