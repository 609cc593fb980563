"""Print the two size counts every change reports: the lines of ``src/``, and
the code lines there that test the arithmetic mode.

    python3 tools/count_src.py

A mode-test line is one whose code tokens (not strings or comments) name
``is_exact``, ``all_exact`` or ``exact`` (so ``matrix.exact`` too), less
import statements, ``def`` lines and bare ``exact = ...`` bindings.  Paths are
read relative to the repository root, wherever the script is run from.
"""

import ast
import glob
import os
import re
import tokenize

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


def main() -> None:
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "rps_dynamics", "*.py")))
    lines = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    print(f"src lines: {lines}")
    print(f"mode-test lines: {sum(map(mode_test_lines, paths))}")


if __name__ == "__main__":
    main()
