"""The `--compare` rules of scripts/cli_gate.py on small hand-written
output directories, its refusal of a used OUTDIR and its usage errors,
without a solver run."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_gate.py"
_spec = importlib.util.spec_from_file_location("cli_gate", _PATH)
cli_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_gate)

HEADER = "t,steps,mass_err,energy,walltime_s\n"
ROW0 = "0.0,0,0.0,1.5,0.25\n"


def _write(root, diagnostics):
    (root / "run").mkdir(parents=True)
    (root / "run" / "diagnostics.csv").write_text(HEADER + ROW0 + diagnostics)
    (root / "manifest.json").write_text('{"n_steps": 3}\n')
    return str(root)


@pytest.mark.parametrize("row_b,status", [
    pytest.param("0.001,3,2e-15,1.25,0.5\n", 0, id="identical"),
    pytest.param("0.001,4,2e-15,1.25,0.5\n", 1, id="exact-column"),
    pytest.param("0.001,3,5e-13,1.25,0.5\n", 0, id="conservation-within"),
    pytest.param("0.001,3,3e-12,1.25,0.5\n", 1, id="conservation-beyond"),
    pytest.param("0.001,3,2e-15,1.2500001,0.5\n", 0, id="value-within"),
    pytest.param("0.001,3,2e-15,1.2501,0.5\n", 1, id="value-beyond"),
    pytest.param("0.001,3,2e-15,1.25,9.0\n", 0, id="walltime-ignored"),
])
def test_compare_rules(row_b, status, tmp_path, capsys):
    a = _write(tmp_path / "a", "0.001,3,2e-15,1.25,0.5\n")
    b = _write(tmp_path / "b", row_b)
    assert cli_gate.compare(a, b) == status
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert any(line.startswith("FAIL") for line in lines) == bool(status)


def test_compare_missing_file_fails(tmp_path, capsys):
    a = _write(tmp_path / "a", "0.001,3,2e-15,1.25,0.5\n")
    b = _write(tmp_path / "b", "0.001,3,2e-15,1.25,0.5\n")
    (tmp_path / "b" / "manifest.json").unlink()
    assert cli_gate.compare(a, b) == 1
    assert "FAIL  manifest.json: missing on one side" \
        in capsys.readouterr().out


def test_hash_ignores_walltime(tmp_path):
    """The hashed content drops the timing column and keeps the rest."""
    paths = []
    for name, wall in (("a", "0.5"), ("b", "9.0")):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(HEADER + f"0.001,3,2e-15,1.25,{wall}\n")
    assert cli_gate._content(paths[0]) == cli_gate._content(paths[1])
    assert b"walltime_s" not in cli_gate._content(paths[0])


def test_gate_refuses_nonempty_outdir(tmp_path, capsys, monkeypatch):
    """A file already in OUTDIR would be hashed as this run's output: the
    gate stops before any command and leaves the file alone."""
    stale = tmp_path / "mms1d" / "eoc.csv"
    stale.parent.mkdir()
    stale.write_text("stale\n")
    monkeypatch.setattr(cli_gate, "main",
                        lambda argv: pytest.fail("ran a command"))
    assert cli_gate.main_gate(str(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is not empty" in err
    assert stale.read_text() == "stale\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--compare"],
                                  [], ["a", "b"]])
def test_options_and_wrong_counts_print_usage(argv, tmp_path, capsys,
                                              monkeypatch):
    """`--help`, any other single argument that starts with `-` and a
    wrong number of arguments print the usage and give a nonzero status,
    without running the gate or writing a file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_gate, "main_gate",
                        lambda outdir: pytest.fail("ran the gate"))
    assert cli_gate.cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == cli_gate.USAGE + "\n"
    assert not any(tmp_path.iterdir())
