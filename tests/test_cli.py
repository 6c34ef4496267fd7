"""Command-line harness: precedence, outputs, round-trip, determinism."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import chns_imex
from chns_imex.cli import (ENV_PREFIX, build_parser, main, resolve_config,
                           write_csv)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

def test_defaults():
    args = build_parser().parse_args(["run", "--test", "1"])
    cfg = resolve_config(args)
    assert cfg.dim == 2 and cfg.scheme == "star_dirksa"
    assert cfg.M == (64,) and cfg.cp == 1e2
    assert cfg.T == 0.1 and cfg.cfl == 0.4
    assert cfg.seed == 0
    assert (cfg.nu, cfg.lam, cfg.eps, cfg.g) == (1.0, 0.1, 1e-4, -10.0)


def test_mms_default_final_time():
    cfg = resolve_config(build_parser().parse_args(["mms"]))
    assert cfg.T == 0.01
    cfg = resolve_config(build_parser().parse_args(["mms", "--T", "0.2"]))
    assert cfg.T == 0.2


def test_m_list_and_dump_times_parsing():
    args = build_parser().parse_args(
        ["mms", "--M", "8,16,32", "--dump-times", "0.0,0.005"])
    cfg = resolve_config(args)
    assert cfg.M == (8, 16, 32)
    assert cfg.dump_times == (0.0, 0.005)


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "CP", "1e6")
    monkeypatch.setenv(ENV_PREFIX + "SCHEME", "ee_ie")
    cfg = resolve_config(build_parser().parse_args(["run", "--test", "2"]))
    assert cfg.cp == 1e6
    assert cfg.scheme == "ee_ie"


def test_flag_beats_env_beats_file(tmp_path, monkeypatch):
    conf = tmp_path / "case.conf"
    conf.write_text("cp = 1e3          # from file\ncfl = 0.2\nseed = 9\n")
    monkeypatch.setenv(ENV_PREFIX + "CP", "1e5")
    args = build_parser().parse_args(
        ["run", "--test", "1", "--cp", "1e7", "--config", str(conf)])
    cfg = resolve_config(args)
    assert cfg.cp == 1e7            # flag wins
    assert cfg.cfl == 0.2           # file fills the gap
    assert cfg.seed == 9


def test_malformed_config_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("this is not a key value pair\n")
    args = build_parser().parse_args(
        ["run", "--test", "1", "--config", str(conf)])
    with pytest.raises(ValueError):
        resolve_config(args)


def test_sweep_cp_list():
    args = build_parser().parse_args(
        ["sweep", "--test", "2", "--cp", "1e2,1e4,1e6"])
    cfg = resolve_config(args)
    assert cfg.cp_list == (1e2, 1e4, 1e6)


def test_csv_full_precision_round_trip(tmp_path):
    vals = [np.pi, 1.0 / 3.0, 1e-17, 123456.789012345678]
    path = tmp_path / "x.csv"
    write_csv(path, ["v"], [[v] for v in vals])
    got = [float(r["v"]) for r in _read_csv(path)]
    assert got == vals              # bit-exact round trip through repr()


# ---------------------------------------------------------------------------
# end-to-end subcommands (small, fast problems)
# ---------------------------------------------------------------------------

def test_mms_writes_eoc_and_manifest(tmp_path):
    out = tmp_path / "mms"
    rc = main(["mms", "--dim", "1", "--M", "8,16", "--T", "0.002",
               "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "eoc.csv")
    assert [r["M"] for r in rows] == ["8", "16"]
    assert rows[0]["eoc"] == ""
    assert float(rows[1]["error"]) < float(rows[0]["error"])
    assert float(rows[1]["walltime_s"]) > 0.0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["dim"] == 1
    assert man["config"]["M"] == [8, 16]
    for M in (8, 16):
        assert (out / f"M{M}" / f"fields_t0.002.csv").exists()
        assert (out / f"M{M}" / "diagnostics.csv").exists()


def test_run_outputs_and_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--test", "3", "--M", "16", "--T", "0.002",
                   "--cp", "1e2", "--seed", "5",
                   "--dump-times", "0,0.002", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for fname in ("fields_t0.csv", "fields_t0.002.csv", "diagnostics.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} not bit-identical across reruns"
    rows = _read_csv(outs[0] / "diagnostics.csv")
    assert [r["t"] for r in rows] == ["0.0", "0.002"]
    assert float(rows[1]["mass_err"]) < 1e-12
    assert int(rows[1]["steps"]) >= 1
    man = json.loads((outs[0] / "manifest.json").read_text())
    assert man["n_steps"] >= 1
    # a different seed changes the fields
    out_c = tmp_path / "c"
    main(["run", "--test", "3", "--M", "16", "--T", "0.002", "--cp", "1e2",
          "--seed", "6", "--dump-times", "0,0.002", "--out", str(out_c)])
    assert (out_c / "fields_t0.csv").read_bytes() \
        != (outs[0] / "fields_t0.csv").read_bytes()


def test_run_requires_test_flag():
    with pytest.raises(SystemExit):
        main(["run", "--M", "16", "--T", "0.001"])


@pytest.mark.parametrize("argv,env,conf", [
    pytest.param([], {"SCHEME": "rk4"}, "", id="env-solver"),
    pytest.param([], {}, "scheme = rk4\n", id="file-solver"),
    pytest.param(["--linear-solver", "cg"], {}, "", id="removed-flag"),
    pytest.param([], {}, "linear_solver = cg\n", id="file-removed-key"),
    pytest.param([], {"M": ","}, "", id="env-empty-M"),
    pytest.param([], {}, "cfl = 0\n", id="file-cfl"),
    pytest.param([], {}, "no_such_key = 1\n", id="file-unknown-key"),
    pytest.param(["--dim", "1"], {}, "", id="dim-1"),
    pytest.param(["--cfl", "0"], {}, "", id="cfl-0"),
    pytest.param(["--T", "-1"], {}, "", id="T-negative"),
    pytest.param(["--M", ","], {}, "", id="empty-M"),
    pytest.param(["--M", "2"], {}, "", id="M-too-small"),
    pytest.param(["--M", "8,16"], {}, "", id="M-list"),
    pytest.param(["--nu", "0"], {}, "", id="nu-0"),
    pytest.param(["--nu", "nan"], {}, "", id="nu-nan"),
    pytest.param(["--cp", "inf"], {}, "", id="cp-inf"),
    pytest.param(["--seed", "-1"], {}, "", id="seed-negative"),
    pytest.param([], {"CFL": "inf"}, "", id="env-cfl-inf"),
    pytest.param(["--dump-times", "nan"], {}, "", id="dump-nan"),
    pytest.param(["--dump-times", "0,-1"], {}, "", id="dump-negative"),
    pytest.param(["--dump-times", "inf"], {}, "", id="dump-inf"),
    pytest.param(["--dump-times", "0.002"], {}, "", id="dump-past-T"),
    pytest.param([], {"DUMP_TIMES": "0,0.0011"}, "", id="env-dump-past-T"),
])
def test_bad_input_is_a_usage_error(argv, env, conf, tmp_path, monkeypatch,
                                    capsys):
    """Bad values from flags, CHNS_* variables or the config file end in
    exit status 2 with a message, before any output is written."""
    for key, val in env.items():
        monkeypatch.setenv(ENV_PREFIX + key, val)
    if conf:
        (tmp_path / "case.conf").write_text(conf)
        argv = argv + ["--config", str(tmp_path / "case.conf")]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--test", "2", "--T", "0.001", "--out", str(out)]
             + argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bad_value_names_its_source(tmp_path, monkeypatch):
    """An environment value is named by its variable, a file value by the
    config path, each with the flag's own parse message."""
    monkeypatch.setenv(ENV_PREFIX + "CFL", "abc")
    args = build_parser().parse_args(["run", "--test", "1"])
    with pytest.raises(ValueError) as exc:
        resolve_config(args)
    assert str(exc.value) == \
        "CHNS_CFL: argument --cfl: invalid float value: 'abc'"
    monkeypatch.delenv(ENV_PREFIX + "CFL")
    conf = tmp_path / "case.conf"
    conf.write_text("scheme = rk4\n")
    args = build_parser().parse_args(["run", "--test", "1", "--config",
                                      str(conf)])
    with pytest.raises(ValueError, match="^" + str(conf)
                       + ": argument --scheme: invalid choice"):
        resolve_config(args)


def test_overridden_value_is_not_parsed(tmp_path, monkeypatch):
    """A value that a higher-precedence source replaces is never read, so
    a bad one there is no error."""
    conf = tmp_path / "case.conf"
    conf.write_text("cfl = abc\nseed = -x\n")
    monkeypatch.setenv(ENV_PREFIX + "CFL", "0.3")
    monkeypatch.setenv(ENV_PREFIX + "SEED", "oops")
    args = build_parser().parse_args(
        ["run", "--test", "1", "--seed", "4", "--config", str(conf)])
    cfg = resolve_config(args)
    assert (cfg.cfl, cfg.seed) == (0.3, 4)


def test_mms_repeated_grid_size_is_a_usage_error(tmp_path, capsys):
    """A repeated M would divide by log(M/M) = 0 and write nan to eoc.csv."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mms", "--dim", "1", "--M", "8,8", "--out", str(out)])
    assert exc.value.code == 2
    assert "repeats a grid size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dumps", ["0.001,0.001", "0.001,0.0010000000001"])
def test_run_with_repeated_dump_times(dumps, tmp_path):
    """Equal or nearly equal dump times share one snapshot: the run exits 0
    and takes the steps of a run with the one dump time 0.001."""
    outs = {}
    for name, d in (("twice", dumps), ("once", "0.001")):
        outs[name] = tmp_path / name
        assert main(["run", "--test", "1", "--M", "16", "--T", "0.002",
                     "--dump-times", d, "--out", str(outs[name])]) == 0
    n_steps = [json.loads((outs[k] / "manifest.json").read_text())["n_steps"]
               for k in ("twice", "once")]
    assert n_steps[0] == n_steps[1]
    assert (outs["twice"] / "fields_t0.001.csv").read_bytes() \
        == (outs["once"] / "fields_t0.001.csv").read_bytes()


@pytest.mark.parametrize("flag,value", [("--T", "inf"), ("--T", "nan"),
                                        ("--cfl", "inf")])
def test_non_finite_time_or_cfl_rejected(flag, value):
    """Resolved without running: a run to T = inf would never end."""
    args = build_parser().parse_args(["run", "--test", "1", flag, value])
    with pytest.raises(ValueError, match="positive and finite"):
        resolve_config(args)


def test_fields_csv_header_2d(tmp_path):
    out = tmp_path / "t1"
    main(["run", "--test", "1", "--M", "8", "--T", "0.001", "--cp", "1e2",
          "--dump-times", "0", "--out", str(out)])
    with open(out / "fields_t0.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "y", "rho", "v1", "v2", "c"]
    rows = _read_csv(out / "fields_t0.csv")
    assert len(rows) == 64


def test_sweep_csv(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--test", "2", "--M", "8", "--T", "0.002",
               "--cp", "1e2,1e4", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "sweep.csv")
    assert [float(r["cp"]) for r in rows] == [1e2, 1e4]
    for r in rows:
        assert int(r["steps"]) >= 1
        assert float(r["mass_err"]) < 1e-10


# ---------------------------------------------------------------------------
# thread pools
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}],
                         ids=["unset", "user-set"])
def test_import_pins_blas_threads_unless_set(preset):
    """In a fresh interpreter, `import chns_imex` sets every BLAS/OpenMP
    thread variable the caller left unset to one thread, and keeps the
    value of one the caller set."""
    env = {k: v for k, v in os.environ.items()
           if k not in chns_imex.THREAD_VARS}
    env.update(preset)
    src = pathlib.Path(chns_imex.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    probe = ("import json, os; import chns_imex; "
             "print(json.dumps({v: os.environ.get(v) "
             "for v in chns_imex.THREAD_VARS}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    expected = dict.fromkeys(chns_imex.THREAD_VARS, "1") | preset
    assert json.loads(out) == expected
