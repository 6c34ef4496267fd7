"""scripts/code_lines.py: which lines of a module count as code."""

import importlib.util
import pathlib
import textwrap

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", PATH)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

MODULE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment does not hide the code

    # a comment line


    class A:
        """Class docstring."""

        def f(self, x):
            """Function
            docstring."""
            total = (x
                     + 1)
            text = """a multi-line string
            that is not a docstring"""
            return total, text
    ''')


def test_counts_code_lines_only():
    """import, class, def, the two-line expression, the two lines of the
    string that is not a docstring, and the return: 8 lines of 19."""
    assert code_lines.code_lines(MODULE) == 8


def test_main_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
