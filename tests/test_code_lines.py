"""scripts/code_lines.py: which lines of a Python module or a C source
count as code."""

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


C_SOURCE = textwrap.dedent('''\
    /* A block comment
       over two lines. */
    #include <stddef.h>

    // a line comment
    static int f(int x)  /* a trailing block comment */
    {
        const char *s = "// not a comment"; /* a comment that
        ends */ return x;  // trailing
        /* one line */
    }
    ''')


def test_counts_code_lines_only():
    """import, class, def, the two-line expression, the two lines of the
    string that is not a docstring, and the return: 8 lines of 19."""
    assert code_lines.code_lines(MODULE) == 8


def test_counts_c_code_lines_only():
    """#include, the signature, the two braces, the line with the string, and
    the line on which a block comment ends before a statement: 6 lines of
    11."""
    assert code_lines.c_code_lines(C_SOURCE) == 6


def test_main_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "k.c").write_text(C_SOURCE)
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "6", "15"]
    assert lines[-1].split()[1] == "total"
