"""Run the fixed set of `chns` commands, and check their outputs.

A refactor that must not change behaviour is checked by running this script
on both commits and comparing the printed lines:

    python3 scripts/cli_gate.py OUTDIR

The commands run in-process against the `src/` of the checkout that holds
this script (copy the script into another checkout to gate that one).  They
write into OUTDIR with relative `--out` paths, so the manifests do not
depend on OUTDIR.  Every file under OUTDIR is hashed, so OUTDIR must be new
or empty: a file left by an earlier run would be hashed as this run's.  The
`walltime_s` column of `eoc.csv` and `sweep.csv` is dropped before hashing,
because it is a timing and not a result.

A change that moves rounding cannot be bit-identical; it compares the two
output directories against the fixed tolerances below instead:

    python3 scripts/cli_gate.py --compare DIR_A DIR_B

Every file must exist on both sides.  Files other than CSV, text cells and
the columns in EXACT_COLUMNS must be identical; the conservation errors may
differ by CONSERVATION_TOL; any other value by COLUMN_TOL times the largest
magnitude of its column in DIR_A.  One line per file gives its worst
difference against its limit; the exit status is 1 when a rule fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chns_imex.cli import main  # noqa: E402

GATE_RUNS = (
    ["mms", "--dim", "1", "--M", "8,16,32", "--out", "mms1d"],
    ["mms", "--dim", "2", "--M", "8,16", "--out", "mms2d"],
    ["run", "--test", "1", "--M", "32", "--cp", "1e8", "--T", "0.003",
     "--dump-times", "0,0.001,0.003", "--out", "test1"],
    ["run", "--test", "3", "--M", "32", "--cp", "1e4", "--T", "0.004",
     "--out", "test3"],
    ["sweep", "--test", "2", "--M", "16", "--cp", "1e2,1e8", "--T", "0.002",
     "--out", "sweep"],
    # at a power-of-two M, h and 1/h are exact, so a stencil and its sparse
    # matrix round alike; a non-dyadic grid shows a change of rounding
    ["mms", "--dim", "2", "--M", "12", "--out", "mms2d-m12"],
    # past the largest stable cfl: steps are retried, the Newton line search
    # damps, and a reconstructed density goes nonpositive
    ["run", "--test", "1", "--M", "16", "--cp", "1e8", "--cfl", "1.2",
     "--T", "0.01", "--out", "retry"],
)

TIMING_COLUMN = "walltime_s"

#: step counts, grid sizes, inputs and coordinates: equal as text
EXACT_COLUMNS = frozenset({"steps", "M", "cp", "t", "x", "y"})
#: absolute bound on the difference of the mass and phase errors
CONSERVATION_COLUMNS = frozenset({"mass_err", "phase_err"})
CONSERVATION_TOL = 1e-12
#: bound on the difference of any other value, as a fraction of the largest
#: magnitude in its column; a near-zero quantity such as div_v_norm at
#: C_p=1e8 moves most under a change of rounding
COLUMN_TOL = 1e-6


def _content(path: pathlib.Path) -> bytes:
    """File bytes, with the timing column removed from CSV files."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or TIMING_COLUMN not in rows[0]:
        return data
    drop = rows[0].index(TIMING_COLUMN)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([r[:drop] + r[drop + 1:] for r in rows])
    return buf.getvalue().encode()


def main_gate(outdir: str) -> int:
    out = pathlib.Path(outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"cli_gate: {out} is not empty; every file under OUTDIR is "
              "hashed, so give a new or empty directory", file=sys.stderr)
        return 2
    os.chdir(out)
    for argv in GATE_RUNS:
        rc = main(argv)
        if rc != 0:
            print(f"command failed ({rc}): chns {' '.join(argv)}",
                  file=sys.stderr)
            return rc
    files = sorted(p for p in out.rglob("*") if p.is_file())
    for p in files:
        digest = hashlib.sha256(_content(p)).hexdigest()
        print(f"{digest}  {p.relative_to(out).as_posix()}")
    print(f"{len(files)} files", file=sys.stderr)
    return 0


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(a: pathlib.Path, b: pathlib.Path):
    """(worst ratio of difference to limit, description) of two CSV files;
    a ratio above 1 breaks a rule."""
    ra = list(csv.reader(io.StringIO(a.read_text(), newline="")))
    rb = list(csv.reader(io.StringIO(b.read_text(), newline="")))
    if not ra or ra[0] != rb[0] or len(ra) != len(rb):
        return float("inf"), "header or row count differs"
    worst, what = 0.0, "identical"
    for j, name in enumerate(ra[0]):
        if name == TIMING_COLUMN:
            continue
        col_a = [row[j] for row in ra[1:]]
        col_b = [row[j] for row in rb[1:]]
        nums = [_float(c) for c in col_a]
        scale = max((abs(x) for x in nums if x is not None), default=0.0)
        limit = (CONSERVATION_TOL if name in CONSERVATION_COLUMNS
                 else COLUMN_TOL * scale)
        for i, (ca, cb, xa) in enumerate(zip(col_a, col_b, nums), start=1):
            if ca == cb:
                continue
            xb = _float(cb)
            if name in EXACT_COLUMNS or xa is None or xb is None:
                return float("inf"), f"{name} row {i}: {ca!r} != {cb!r}"
            diff = abs(xa - xb)
            ratio = diff / limit if limit > 0 else float("inf")
            if ratio > worst:
                worst = ratio
                what = f"{name} row {i}: |a-b| = {diff:.2e}, limit {limit:.2e}"
    return worst, what


def compare(dir_a: str, dir_b: str) -> int:
    a, b = pathlib.Path(dir_a), pathlib.Path(dir_b)
    files = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    failed = 0
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            worst, what = float("inf"), "missing on one side"
        elif fa.suffix == ".csv":
            worst, what = _compare_csv(fa, fb)
        elif fa.read_bytes() == fb.read_bytes():
            worst, what = 0.0, "identical"
        else:
            worst, what = float("inf"), "contents differ"
        ok = worst <= 1.0
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'}  {rel}: {what}")
    print(f"{len(files)} files, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


USAGE = ("usage: cli_gate.py OUTDIR\n"
         "       cli_gate.py --compare DIR_A DIR_B")


def cli(argv: list) -> int:
    """The exit status of the script for the arguments argv; any other
    than the two forms of USAGE, `--help` and every single argument that
    starts with `-` included, print USAGE and give 2."""
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1 or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    return main_gate(argv[0])


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
