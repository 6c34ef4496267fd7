"""Run the benchmark alternately on two checkouts and write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload NAME [--pairs N] [--seconds S]
        [--note TEXT] [--out FILE] PARENT_DIR CHANGE_DIR

Pair i (i = 1..N) runs `perfbench/run.py --workload NAME --seed i
--seconds S --trace 0` once in each checkout, each in a fresh process with
the checkout as its working directory; the parent runs first in odd pairs
and the change first in even ones.  Each checkout should be a clean clone of
its commit.  The output (default BENCH_<workload>.json in the current
directory) holds the runs and commit of each side, the host manifest of the
first run, and per end-to-end metric the two medians, the parent's
interquartile range and the number of pairs in which the change was lower
or higher.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = ("alternating pairs, each a fresh process in a clean clone of its "
            "commit; the parent runs first in odd pairs; seed N is the pair "
            "number")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run: (its result without the manifest, the manifest)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no output from {checkout}:\n"
                         f"{proc.stderr}")
    manifest = next(json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("manifest: "))
    return dict(seed=seed, **json.loads(lines[-1])), manifest


def summary(parent_runs: list, change_runs: list) -> dict:
    """Per metric of the runs: medians, the parent's interquartile range
    and the pairs in which the change was lower or higher."""
    out = {}
    for name, first in parent_runs[0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        q1, _, q3 = statistics.quantiles(a, n=4)
        pa, pb = statistics.median(a), statistics.median(b)
        out[name] = {"unit": first["unit"], "parent_median": pa,
                     "change_median": pb, "parent_iqr": q3 - q1,
                     "change_lower_in": sum(y < x for x, y in zip(a, b)),
                     "change_higher_in": sum(y > x for x, y in zip(a, b)),
                     "pairs": len(a), "rel": pb / pa - 1.0 if pa else 0.0}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--note", help="free text stored with the runs")
    ap.add_argument("--out", type=Path)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    shas, host = {}, None
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result, manifest = run_once(sides[side], args.workload, seed,
                                        args.seconds)
            runs[side].append(result)
            shas[side] = manifest.pop("git_sha")
            host = host or manifest
            print(f"pair {seed} {side}: " + json.dumps(result["metrics"]),
                  flush=True)
    record = {"workload": args.workload,
              "command": f"python3 perfbench/run.py --workload "
                         f"{args.workload} --seed N --seconds "
                         f"{args.seconds:g} --trace 0",
              "protocol": PROTOCOL}
    if args.note:
        record["note"] = args.note
    record.update(host=host,
                  **{side: {"git_sha": shas[side], "runs": runs[side]}
                     for side in sides},
                  summary=summary(runs["parent"], runs["change"]))
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
