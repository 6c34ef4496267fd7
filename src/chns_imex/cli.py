"""Command-line harness.

Subcommands:
  mms    manufactured-solution order study (single M or an M-list -> eoc.csv)
  run    physical test problems 1-3 with field dumps and diagnostics
  sweep  stiffness sweep: repeat a test over a list of C_p values

Options come from the command-line flags alone: each subcommand has one
flag per RunConfig field that it reads, and an option not given takes its
default.  There are no CHNS_* environment variables and no config file.
Cases of an M-list or a C_p-list run one after another.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .cases import DUMP_TIMES, initial_state
from .diagnostics import (ap_metrics, c_extrema, compute_eoc,
                          conservation_errors, error_norm, total_energy)
from .grid import AXES, GridSpec
from .imex import DEFAULT_CFL, Integrator
from .mms import exact_momenta, exact_state, make_forcing
from .model import ModelParams
from .solvers import SolverFailure
from .weno import faces_to_cells


@dataclass
class RunConfig:
    command: str = "run"
    dim: int = 2
    test: int | None = None
    scheme: str = "star_dirksa"
    M: tuple = (64,)
    cp: float = ModelParams.cp
    cp1: float | None = ModelParams.cp1
    T: float = 0.1
    cfl: float = DEFAULT_CFL
    nu: float = ModelParams.nu
    lam: float = ModelParams.lam
    eps: float = ModelParams.eps
    g: float = ModelParams.g
    gamma: float = ModelParams.gamma
    seed: int = 0
    out: str = "out"
    dump_times: tuple = ()

    def model_params(self) -> ModelParams:
        return ModelParams(cp=self.cp, cp1=self.cp1, gamma=self.gamma,
                           nu=self.nu, lam=self.lam, eps=self.eps, g=self.g)


def _parse_list(text, conv):
    out = tuple(conv(tok) for tok in str(text).split(",") if tok.strip())
    if not out:
        raise ValueError(f"empty list {text!r}")
    return out


def int_list(text) -> tuple:
    """Non-empty comma-separated list of integers."""
    return _parse_list(text, int)


def float_list(text) -> tuple:
    """Non-empty comma-separated list of floats."""
    return _parse_list(text, float)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed flags, with the defaults for those not given
    (`mms` runs to T = 0.01); a bad value raises ValueError."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    cp_list = given.pop("cp_list", None)
    cfg = RunConfig(**({"T": 0.01} if args.command == "mms" else {}) | given)
    if args.command == "sweep":
        cfg.cp_list = cp_list or (cfg.cp,)
    if args.command != "mms" and len(cfg.M) > 1:
        raise ValueError(f"{args.command}: --M takes one grid size, got "
                         f"{','.join(map(str, cfg.M))}")
    if len(set(cfg.M)) < len(cfg.M):
        raise ValueError("--M repeats a grid size: "
                         f"{','.join(map(str, cfg.M))}")
    if not (0 < cfg.T < np.inf and 0 < cfg.cfl < np.inf):
        raise ValueError(f"--T and --cfl must be positive and finite, got "
                         f"{cfg.T:g} and {cfg.cfl:g}")
    bad = [t for t in cfg.dump_times if not 0 <= t <= cfg.T]
    if bad:
        raise ValueError(f"--dump-times must lie in [0, T] = [0, {cfg.T:g}], "
                         f"got {', '.join(f'{t:g}' for t in bad)}")
    if cfg.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {cfg.seed}")
    # the grid and the physics check their own values
    for M in cfg.M:
        GridSpec(dim=cfg.dim, M=M)
    for cp in getattr(cfg, "cp_list", (cfg.cp,)):
        replace(cfg, cp=cp).model_params()
    return cfg


# ---------------------------------------------------------------------------
# CSV / manifest output
# ---------------------------------------------------------------------------

def _fmt(v):
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_manifest(outdir: pathlib.Path, cfg: RunConfig, extra=None):
    outdir.mkdir(parents=True, exist_ok=True)
    data = {"config": asdict(cfg), "version": __version__}
    if hasattr(cfg, "cp_list"):
        data["config"]["cp_list"] = list(cfg.cp_list)
    if extra:
        data.update(extra)
    (outdir / "manifest.json").write_text(json.dumps(data, indent=2,
                                                     sort_keys=True) + "\n")


def write_fields(outdir, U, grid, t):
    """Cell-centered rho, velocities (by sixth-order transfer) and c, one
    row per cell with the last axis running fastest."""
    v = [faces_to_cells(vk, k) for k, vk in enumerate(U.velocities())]
    header = [*AXES[:grid.dim], "rho",
              *(f"v{k + 1}" for k in range(grid.dim)), "c"]
    cols = [f.ravel() for f in (*grid.coords(), U.rho, *v, U.q / U.rho)]
    write_csv(outdir / f"fields_t{t:g}.csv", header, zip(*cols))


DIAG_HEADER = ["t", "steps", "mass_err", "phase_err", "div_v_norm",
               "rho_flatness", "grad_p_stiff_norm", "c_min", "c_max",
               "energy"]


def diag_row(t, steps, U, U0, grid, params):
    cons = conservation_errors(U, U0, grid)
    ap = ap_metrics(U, grid, params)
    cmin, cmax = c_extrema(U)
    return [t, steps, cons["mass"], cons["phase"], ap["div_v_norm"],
            ap["rho_flatness"], ap["grad_p_stiff_norm"], cmin, cmax,
            total_energy(U, grid, params)]


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def _integrator(grid, params, cfg, forcing=None):
    return Integrator(grid, params, scheme=cfg.scheme, cfl=cfg.cfl,
                      forcing=forcing)


def _mms_case(cfg: RunConfig, M: int, outdir: pathlib.Path):
    """One grid of the order study."""
    grid = GridSpec(dim=cfg.dim, M=M)
    params = cfg.model_params()
    integ = _integrator(grid, params, cfg, make_forcing(grid, params))
    U0 = exact_state(grid, params, 0.0)
    t0 = time.perf_counter()
    res = integ.run_to_time(U0, cfg.T)
    wall = time.perf_counter() - t0
    ref = exact_state(grid, params, res.t)
    mom = exact_momenta(grid, params, res.t)
    err = error_norm(res.state, ref.rho, mom, ref.q, grid)
    case_dir = outdir / f"M{M}"
    write_fields(case_dir, res.state, grid, res.t)
    rows = [diag_row(res.t, res.n_steps, res.state, U0, grid, params)]
    write_csv(case_dir / "diagnostics.csv", DIAG_HEADER, rows)
    return err, wall


def _run_cases(cfg: RunConfig, key: str, values, run_case, write_rows):
    """Run one case per value in turn and write the rows of their results,
    then the manifest.  If a case gives up, the rows of the finished cases
    are written all the same, with a manifest that names the failed case
    and its message, and the SolverFailure is re-raised."""
    results = []
    try:
        for value in values:
            results.append(run_case(value))
    except SolverFailure as exc:
        write_rows(results)
        write_manifest(pathlib.Path(cfg.out), cfg,
                       extra={"failed": {key: value, "error": str(exc)}})
        raise
    write_rows(results)
    write_manifest(pathlib.Path(cfg.out), cfg)
    return 0


def run_mms(cfg: RunConfig) -> int:
    outdir = pathlib.Path(cfg.out)

    def write_eoc(results):
        Ms = cfg.M[:len(results)]
        eoc = compute_eoc(Ms, [err for err, _ in results])
        rows = [(M, err, "" if r is None else r, wall)
                for M, (err, wall), r in zip(Ms, results, eoc)]
        write_csv(outdir / "eoc.csv", ["M", "error", "eoc", "walltime_s"],
                  rows)

    return _run_cases(cfg, "M", cfg.M, lambda M: _mms_case(cfg, M, outdir),
                      write_eoc)


def run_test(cfg: RunConfig) -> int:
    outdir = pathlib.Path(cfg.out)
    grid = GridSpec(dim=cfg.dim, M=cfg.M[0])
    params = cfg.model_params()
    dumps = cfg.dump_times or tuple(t for t in DUMP_TIMES if t <= cfg.T + 1e-12)
    U0 = initial_state(cfg.test, grid, params, seed=cfg.seed)
    integ = _integrator(grid, params, cfg)
    res = integ.run_to_time(U0, cfg.T, dump_times=dumps)
    rows = []
    steps_at = lambda t: sum(1 for r in res.steps if r.t <= t + 1e-12)
    for t in sorted(res.dumps):
        U = res.dumps[t]
        write_fields(outdir, U, grid, t)
        rows.append(diag_row(t, steps_at(t), U, U0, grid, params))
    if res.t not in res.dumps:
        write_fields(outdir, res.state, grid, res.t)
        rows.append(diag_row(res.t, res.n_steps, res.state, U0, grid, params))
    write_csv(outdir / "diagnostics.csv", DIAG_HEADER, rows)
    write_manifest(outdir, cfg, extra={"n_steps": res.n_steps})
    return 0


def _sweep_case(cfg: RunConfig, cp: float):
    grid = GridSpec(dim=cfg.dim, M=cfg.M[0])
    params = replace(cfg, cp=cp).model_params()
    U0 = initial_state(cfg.test, grid, params, seed=cfg.seed)
    integ = _integrator(grid, params, cfg)
    t0 = time.perf_counter()
    res = integ.run_to_time(U0, cfg.T)
    wall = time.perf_counter() - t0
    cons = conservation_errors(res.state, U0, grid)
    return [cp, res.n_steps, cons["mass"], cons["phase"], wall]


def run_sweep(cfg: RunConfig) -> int:
    def write_sweep(rows):
        write_csv(pathlib.Path(cfg.out) / "sweep.csv",
                  ["cp", "steps", "mass_err", "phase_err", "walltime_s"],
                  rows)

    return _run_cases(cfg, "cp", cfg.cp_list,
                      lambda cp: _sweep_case(cfg, cp), write_sweep)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chns",
        description="Staggered-grid IMEX solver for isentropic two-phase "
                    "flow (compressible Cahn-Hilliard-Navier-Stokes)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (("mms", "manufactured-solution order study"),
                        ("run", "physical test problem"),
                        ("sweep", "stiffness sweep over C_p")):
        _add_options(sub.add_parser(name, help=help_), name)
    return p


def _add_options(q: argparse.ArgumentParser, command: str):
    """One flag per RunConfig field that `command` reads; a flag not given
    parses to None."""
    if command == "mms":
        q.add_argument("--dim", type=int, choices=(1, 2))
    else:
        q.add_argument("--test", type=int, choices=(1, 2, 3), required=True)
    q.add_argument("--scheme", choices=("ee_ie", "star_dirksa"))
    q.add_argument("--M", type=int_list,
                   help="grid size, or comma-separated list")
    if command == "sweep":
        q.add_argument("--cp", dest="cp_list", type=float_list,
                       help="comma-separated total pressure coefficients")
    else:
        q.add_argument("--cp", type=float,
                       help="total pressure coefficient C_p")
    q.add_argument("--cp1", type=float, help="non-stiff coefficient "
                   "C_p1 (default sqrt(C_p))")
    q.add_argument("--T", type=float, help="final time")
    for name in ("cfl", "nu", "lam", "eps", "g", "gamma"):
        q.add_argument(f"--{name}", type=float)
    if command != "mms":
        q.add_argument("--seed", type=int)
    q.add_argument("--out", help="output directory")
    if command == "run":
        q.add_argument("--dump-times", type=float_list,
                       help="comma-separated snapshot times")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    command = {"mms": run_mms, "run": run_test, "sweep": run_sweep}
    try:
        return command[args.command](cfg)
    except SolverFailure as exc:
        # a step that gave up is a run error (status 1), not a usage error
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
