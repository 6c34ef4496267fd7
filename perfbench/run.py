#!/usr/bin/env python3
"""chns-imex benchmark: fixed solver runs, end-to-end timings, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the solver is imported from its
`src/` directory, never from an installed copy.  A run repeats the
workload's cases (see workloads.py), each built afresh and integrated from
t=0 to T, until the next repetition would overrun `--seconds` (at least
three repetitions).  Every repetition is checked for correctness.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics (medians over repetitions).  With `--trace 1`,
untraced and traced repetitions alternate and the JSON holds the per-layer
metrics of the traced ones (medians over repetitions), plus the tracing
overhead.  The lines before it give each timing's median, high percentile
and sample count, and the run manifest.  Full results and, when traced,
the spans go to `.bench_out/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: thread-pool variables of the BLAS/OpenMP runtimes NumPy and SciPy may
#: load; one thread each (<= nproc), so timings measure the solver and not
#: the scheduler.  SuperLU and the sparse kernels are single-threaded anyway.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_solver():
    """Import chns_imex from the checkout's src/, or exit with an error."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        import chns_imex
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import chns_imex from {SRC}: "
                         f"{exc}") from exc
    if not Path(chns_imex.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: chns_imex imported from "
                         f"{chns_imex.__file__}, not from {SRC}")


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(threads: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_env": threads, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    import_solver()
    from harness import measure, summarize
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")

    cases, tracer, reps, layers = measure(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    lines, metrics, attempted, failed = summarize(
        args.workload, cases, reps, layers, bool(args.trace))
    info = manifest(threads)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, manifest=info, all_metrics=metrics,
                  cases=[c.label for c in cases],
                  repetitions=[{k: r[k] for k in
                                ("traced", "wall", "speed", "steps",
                                 "step_s", "setup", "probes", "elapsed",
                                 "errors", "failures")}
                               for r in reps])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")

    for line in lines:
        print(line)
    print("manifest: " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
