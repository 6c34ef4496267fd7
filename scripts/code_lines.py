"""Count the lines of Python and C source that hold code.

In Python, a line holds code when a token other than a comment, a line
break or an indentation change starts on it or spans it.  Blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function) are not counted; a multi-line expression or string
counts every line it spans.  In C, a line holds code when something other
than white space is left on it once the `/* */` and `//` comments are
removed.  Usage:

    python3 scripts/code_lines.py PATH...

Each PATH is a source file or a directory searched for `*.py` and `*.c`
files.  One line per file gives its count and path, and a last line the
total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import sys
import tokenize

NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                      tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                      tokenize.ENDMARKER})
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef,
                    ast.AsyncFunctionDef)
#: a C string or character literal, which may hold comment markers, or a
#: comment
C_LEXEMES = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\''
                       r"|/\*.*?\*/|//[^\n]*", re.S)


def _docstring_starts(source: str) -> set:
    """(row, col) of the first token of every docstring in source."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of source that hold code."""
    docstrings = _docstring_starts(source)
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.start in docstrings:
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def c_code_lines(source: str) -> int:
    """Number of lines of C source that hold code."""
    def blank(m):
        lexeme = m.group()
        return lexeme if lexeme[0] in "\"'" else "\n" * lexeme.count("\n")
    return sum(1 for line in C_LEXEMES.sub(blank, source).splitlines()
               if line.strip())


#: the line counter of each source suffix
COUNTERS = {".py": code_lines, ".c": c_code_lines}


def source_files(paths) -> list:
    """The files named, and the `*.py` and `*.c` files under the
    directories named."""
    files = []
    for p in map(pathlib.Path, paths):
        files.extend(sorted(f for f in p.rglob("*") if f.suffix in COUNTERS)
                     if p.is_dir() else [p])
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in source_files(paths):
        n = COUNTERS.get(path.suffix, code_lines)(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
