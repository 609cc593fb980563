"""Print the size counts every change reports: the lines of ``src/``, split
into code, docstring, comment and blank lines, and the code lines there that
test the arithmetic mode.

    python3 tools/count_src.py

Docstring lines are those a module, class or function docstring spans
(``ast``).  Of the other lines, a blank line holds only whitespace, a comment
line holds no token but a comment (``tokenize``), and every other line is a
code line.  A mode-test line is one whose code tokens (not strings or
comments) name ``is_exact``, ``all_exact`` or ``exact`` (so ``matrix.exact``
too), less import statements, ``def`` lines and bare ``exact = ...``
bindings.  Paths are read relative to the repository root, wherever the
script is run from.
"""

import ast
import glob
import io
import os
import re
import tokenize
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODE_NAMES = ("is_exact", "all_exact", "exact")


def mode_test_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    with open(path, encoding="utf-8") as fh:
        named = {t.start[0] for t in tokenize.generate_tokens(fh.readline)
                 if t.type == tokenize.NAME and t.string in MODE_NAMES}
    imports = {k for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))
               for k in range(node.lineno, node.end_lineno + 1)}
    skipped = {k for k, line in enumerate(source.splitlines(), 1) if re.match(r"\s*(def |exact = )", line)}
    return len(named - imports - skipped)


def line_kinds(path: str) -> Counter:
    """How many lines of the file are code, docstring, comment and blank."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    code = {k for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in layout
            for k in range(t.start[0], t.end[0] + 1)}
    kinds = Counter()
    for k, line in enumerate(source.splitlines(), 1):
        if k in docstrings:
            kinds["docstring"] += 1
        elif not line.strip():
            kinds["blank"] += 1
        elif k not in code:  # a line with no token but a comment
            kinds["comment"] += 1
        else:
            kinds["code"] += 1
    return kinds


def main() -> None:
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "rps_dynamics", "*.py")))
    kinds = sum(map(line_kinds, paths), Counter())
    print(f"src lines: {sum(kinds.values())}")
    print(f"code lines: {kinds['code']} (less {kinds['docstring']} docstring, {kinds['comment']} comment"
          f" and {kinds['blank']} blank lines)")
    print(f"mode-test lines: {sum(map(mode_test_lines, paths))}")


if __name__ == "__main__":
    main()
