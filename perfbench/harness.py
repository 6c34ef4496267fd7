"""Measurement loop of the benchmark: repetitions, checks and the report.

Imported by run.py after it has pinned the thread pools and put the
checkout's src/ on the path.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback

import numpy as np

from spans import Tracer, aggregate, median_metrics
from workloads import (WORKLOADS, build_initial, build_integrator, c_abs_max,
                       check, check_order)

#: builds per case and repetition; setup_s is the median over them
SETUP_REPEATS = 3
MIN_REPS = 3
#: the speed probe's time on the reference host (2-vCPU x86-64 VM, Python
#: 3.11, NumPy 2.4); times are scaled by PROBE_REF_S / measured probe time
PROBE_REF_S = 5.0e-4
_PROBE_DATA = np.linspace(0.0, 1.0, 20_000)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and NumPy work.

    The host's speed drifts by tens of percent over tens of seconds (other
    tenants of the machine), which no statistic over one run removes.  The
    probe runs after every build and every accepted step, outside the timed
    intervals, so it samples the speed over the same interval as the solver;
    scaling by it cut the run-to-run spread of wall_s several-fold.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = _PROBE_DATA
    for _ in range(4):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def run_case(case, seed, tracer, out):
    """Build and run one case, appending samples and failures to `out`."""
    if tracer is None:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            grid, params, U0, forcing = build_initial(case, seed)
            integ = build_integrator(case, grid, params, forcing)
            builds.append(time.perf_counter() - t0)
            out["probes"].append(speed_probe())
        out["setup"].append(builds)
    else:
        (grid, params, U0, forcing), _ = tracer.call(
            "setup.initial", build_initial, case, seed)
        integ, _ = tracer.call("setup.integrator", build_integrator,
                               case, grid, params, forcing)

    marks = []          # (end of a step, start of the next) around on_step
    c_max = [c_abs_max(U0)]

    def on_step(U, rec):
        end = time.perf_counter()
        c_max[0] = max(c_max[0], c_abs_max(U))
        out["probes"].append(speed_probe())
        marks.append((end, time.perf_counter()))

    out["attempted"] += 1
    t0 = time.perf_counter()
    try:
        res = integ.run_to_time(U0, case.T, on_step=on_step)
    except Exception:   # any raise is a failed run, counted and reported
        out["failures"].append(f"{case.label}: raised\n"
                               + traceback.format_exc())
        out["case_failed"].append(True)
        return None
    bad, err = check(case, grid, params, U0, res, c_max[0])
    out["failures"] += [f"{case.label}: {b}" for b in bad]
    out["case_failed"].append(bool(bad))
    starts = [t0] + [start for _, start in marks]
    step_s = [end - start for (end, _), start in zip(marks, starts)]
    out["wall"] += sum(step_s)
    out["steps"] += res.n_steps
    out["step_s"] += step_s
    out["records"] += res.steps
    return err


def run_rep(cases, seed, tracer=None) -> dict:
    out = {"traced": tracer is not None, "setup": [], "wall": 0.0,
           "steps": 0, "step_s": [], "records": [], "attempted": 0,
           "failures": [], "case_failed": [], "probes": [speed_probe()]}
    start = time.perf_counter()
    errors = [run_case(case, seed, tracer, out) for case in cases]
    if None not in errors:
        fail_rep(out, check_order(cases, errors))
    out["errors"] = errors
    out["speed"] = PROBE_REF_S / statistics.median(out["probes"])
    out["elapsed"] = time.perf_counter() - start
    return out


def fail_rep(rep: dict, failures: list):
    """Record failures of a whole repetition against its last case run."""
    if failures:
        rep["failures"] += failures
        rep["case_failed"][-1] = True


def cross_check(layer: dict, records) -> list:
    """Counts made by the wrappers against the program's own StepRecords."""
    bad = []
    for metric, field in (("solvers.newton.iters", "newton_iters"),
                          ("solvers.newton.factorizations", "factorizations"),
                          ("imex.retries", "retries")):
        own = sum(getattr(r, field) for r in records)
        if layer[metric] != own:
            bad.append(f"cross-check: traced {metric} = {layer[metric]} "
                       f"but StepRecord.{field} sums to {own}")
    return bad


# ---------------------------------------------------------------------------
# the measurement loop and its report
# ---------------------------------------------------------------------------

def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, else the
    maximum; returned as (label, value)."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}", float(np.percentile(values, q))
    return "max", max(values)


def describe(name, unit, values):
    label, hi = high_percentile(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"{label} {hi:.6g} {unit}, n={len(values)}")


def measure(workload, seed, seconds, trace):
    cases = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    min_reps = 2 if trace else MIN_REPS
    reps, layers = [], []
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.run_id = f"{workload}-seed{seed}-rep{len(reps)}"
            first = len(tracer.spans)
            with tracer.installed():
                rep = run_rep(cases, seed, tracer)
            layer = aggregate(tracer.spans[first:])
            fail_rep(rep, cross_check(layer, rep["records"]))
            layers.append(layer)
        else:
            rep = run_rep(cases, seed)
        reps.append(rep)
        if len(reps) < min_reps or (trace and len(reps) % 2):
            continue
        step = statistics.median(r["elapsed"] for r in reps)
        if time.perf_counter() + step * (2 if trace else 1) > deadline:
            break
    return cases, tracer, reps, layers


def summarize(workload, cases, reps, layers, trace):
    """Report lines and metrics of a finished measurement."""
    plain = [r for r in reps if not r["traced"]]
    good = [r for r in plain if not r["failures"]] or plain
    # every time is scaled to the reference speed by its repetition's probe
    walls = [r["wall"] * r["speed"] for r in good]
    steps = good[0]["steps"]
    n_cases = len(cases)
    # per case the median over its builds, summed over the workload's cases
    builds = [[s * r["speed"] for r in plain for s in r["setup"][i]]
              for i in range(n_cases)]
    setup_s = sum(statistics.median(b) for b in builds)
    step_ms = [1000.0 * s * r["speed"] for r in good for s in r["step_s"]]
    probe_ms = [1000.0 * p for r in plain for p in r["probes"]]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(sum(r["case_failed"]) for r in reps)

    lines = [f"workload {workload}: {n_cases} case(s), "
             f"{len(plain)} untraced repetition(s)",
             describe("wall_s", "s", walls),
             describe("wall_s unscaled", "s", [r["wall"] for r in good]),
             describe("speed probe", "ms", probe_ms),
             describe("step_ms (per accepted step)", "ms", step_ms),
             describe("setup_s (builds of all cases)", "s",
                      [sum(b) for b in zip(*builds)]),
             f"steps: {steps} per repetition (exact)",
             f"peak_rss_mib: {rss_mib:.6g} MiB (whole process, n=1)",
             f"fail_ratio: {failed}/{attempted} case runs"]
    lines += ["FAILED " + f for r in reps for f in r["failures"]]
    if trace:
        traced = [r["wall"] * r["speed"] for r in reps if r["traced"]]
        lines.append(describe("wall_s traced", "s", traced))
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(walls))
    else:
        wall_s = statistics.median(walls)
        # no steps only when every repetition raised (correct is then false)
        ms_per_step = wall_s * 1000.0 / steps if steps else float("nan")
        metrics = {"wall_s": wall_s, "ms_per_step": ms_per_step,
                   "steps": steps, "setup_s": setup_s,
                   "peak_rss_mib": rss_mib}
    return lines, metrics, attempted, failed
