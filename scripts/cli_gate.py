"""Run the fixed set of `chns` commands and print a sha256 of every output.

A refactor that must not change behaviour is checked by running this script
on both commits and comparing the printed lines:

    python3 scripts/cli_gate.py OUTDIR

The commands run in-process against the `src/` of the checkout that holds
this script (copy the script into another checkout to gate that one).  They
write into OUTDIR with relative `--out` paths, so the manifests do not
depend on OUTDIR.  The `walltime_s` column of `eoc.csv` and `sweep.csv` is
dropped before hashing, because it is a timing and not a result.
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
     "--linear-solver", "direct", "--out", "test3"],
    ["sweep", "--test", "2", "--M", "16", "--cp", "1e2,1e8", "--T", "0.002",
     "--out", "sweep"],
)

TIMING_COLUMN = "walltime_s"


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_gate.py OUTDIR")
    sys.exit(main_gate(sys.argv[1]))
