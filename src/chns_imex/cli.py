"""Command-line harness.

Subcommands:
  mms    manufactured-solution order study (single M or an M-list -> eoc.csv)
  run    physical test problems 1-3 with field dumps and diagnostics
  sweep  stiffness sweep: repeat a test over a list of C_p values

Option precedence: command-line flags > environment variables > config file >
defaults.  Environment variables mirror the flags with the prefix CHNS_ and
upper-case names (e.g. CHNS_CP=1e4, CHNS_SEED=3).  The
config file (--config) holds plain "key = value" lines with the same keys as
the flags.  Cases of an M-list or a C_p-list run one after another.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import pathlib
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .cases import DUMP_TIMES, initial_state
from .diagnostics import (ap_metrics, c_extrema, compute_eoc,
                          conservation_errors, error_norm, total_energy)
from .grid import AXES, GridSpec, extend_face_interior, faces_to_cells6
from .imex import DEFAULT_CFL, Integrator
from .mms import exact_momenta, exact_state, make_forcing
from .model import ModelParams

ENV_PREFIX = "CHNS_"


@dataclass
class RunConfig:
    command: str = "run"
    dim: int = 2
    test: int | None = None
    scheme: str = "star_dirksa"
    M: tuple = (64,)
    cp: float = 1e2
    cp1: float | None = None
    T: float = 0.1
    cfl: float = DEFAULT_CFL
    nu: float = 1.0
    lam: float = 0.1
    eps: float = 1e-4
    g: float = -10.0
    gamma: float = 5.0 / 3.0
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


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in pathlib.Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags, CHNS_* environment variables, and the config file.

    Environment and file values are parsed as `--flag=value` by the
    subcommand's option parser, so they get the flags' types and choices;
    a bad value from any source raises ValueError naming that source.
    """
    parser = _option_parser(args.command)
    actions = {a.option_strings[0][2:].replace("-", "_"): a
               for a in parser._actions}
    file_vals = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - set(actions))
    if unknown:
        raise ValueError(f"{args.config}: unknown keys {', '.join(unknown)}")
    vals = {a.dest: getattr(args, a.dest) for a in actions.values()}
    env = [(var, {key: os.environ[var]}) for key in actions
           if (var := ENV_PREFIX + key.upper()) in os.environ]
    # flags > environment > file: a source fills only what is still unset
    for source, texts in [*env, (args.config, file_vals)]:
        tokens = [f"{actions[key].option_strings[0]}={text}"
                  for key, text in texts.items()
                  if vals[actions[key].dest] is None]
        try:
            parsed = parser.parse_args(tokens)
        except argparse.ArgumentError as exc:
            raise ValueError(f"{source}: {exc}") from exc
        for dest, val in vars(parsed).items():
            if vals[dest] is None:
                vals[dest] = val
    cfg = RunConfig(command=args.command)
    if args.command == "mms":
        cfg.T = 0.01
    if args.command == "sweep":
        cfg.cp_list = (cfg.cp,)
    for dest, val in vals.items():
        if val is not None:
            setattr(cfg, dest, val)
    if args.command != "mms" and cfg.test is None:
        raise ValueError(f"{args.command}: --test is required")
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
    v = [faces_to_cells6(extend_face_interior(vk, k), k)
         for k, vk in enumerate(U.velocities())]
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
    integ = _integrator(grid, params, cfg,
                        forcing=make_forcing(grid, params))
    U0 = exact_state(grid, params, 0.0)
    t0 = time.perf_counter()
    res = integ.run_to_time(U0, cfg.T, dump_times=cfg.dump_times)
    wall = time.perf_counter() - t0
    ref = exact_state(grid, params, res.t)
    mom = exact_momenta(grid, params, res.t)
    err = error_norm(res.state, ref.rho, mom, ref.q, grid)
    case_dir = outdir / f"M{M}"
    write_fields(case_dir, res.state, grid, res.t)
    rows = [diag_row(res.t, res.n_steps, res.state, U0, grid, params)]
    write_csv(case_dir / "diagnostics.csv", DIAG_HEADER, rows)
    return err, wall


def run_mms(cfg: RunConfig) -> int:
    outdir = pathlib.Path(cfg.out)
    results = [_mms_case(cfg, M, outdir) for M in cfg.M]
    errors = [r[0] for r in results]
    times = [r[1] for r in results]
    eoc = compute_eoc(cfg.M, errors)
    rows = [(M, e, "" if r is None else r, nst)
            for M, e, r, nst in zip(cfg.M, errors, eoc, times)]
    write_csv(outdir / "eoc.csv", ["M", "error", "eoc", "walltime_s"], rows)
    write_manifest(outdir, cfg)
    return 0


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
    outdir = pathlib.Path(cfg.out)
    rows = [_sweep_case(cfg, cp) for cp in cfg.cp_list]
    write_csv(outdir / "sweep.csv",
              ["cp", "steps", "mass_err", "phase_err", "walltime_s"], rows)
    write_manifest(outdir, cfg)
    return 0


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
        q = sub.add_parser(name, help=help_, parents=[_option_parser(name)])
        q.add_argument("--config", help="key=value config file")
    return p


@functools.lru_cache
def _option_parser(command: str) -> argparse.ArgumentParser:
    """The options of a subcommand that a RunConfig field, a CHNS_*
    variable or a config-file key can also set.  A bad value raises
    argparse.ArgumentError instead of exiting."""
    q = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    # the physical test problems are two-dimensional
    q.add_argument("--dim", type=int,
                   choices=(1, 2) if command == "mms" else (2,))
    q.add_argument("--test", type=int, choices=(1, 2, 3))
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
    q.add_argument("--cfl", type=float)
    q.add_argument("--nu", type=float)
    q.add_argument("--lam", type=float)
    q.add_argument("--eps", type=float)
    q.add_argument("--g", type=float)
    q.add_argument("--gamma", type=float)
    q.add_argument("--seed", type=int)
    q.add_argument("--out", help="output directory")
    q.add_argument("--dump-times", dest="dump_times", type=float_list,
                   help="comma-separated snapshot times")
    return q


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if args.command == "mms":
        return run_mms(cfg)
    if args.command == "run":
        return run_test(cfg)
    return run_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
