"""Count code lines: lines of Python source that hold a token other than
a comment, a line break, an indent or a dedent, leaving out module, class
and function docstrings.

Run from anywhere: python tools/code_lines.py [PATH ...]
Each PATH is a .py file or a directory, whose *.py files are counted; with
no PATH the package src/qprodasym is counted.  Prints the count per file,
largest first, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qprodasym"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(args: list[str]) -> int:
    counts = []
    for arg in args or [PACKAGE]:
        path = Path(arg)
        if path.is_dir():
            counts += [(file.name, code_lines(file.read_text()))
                       for file in sorted(path.glob("*.py"))]
        else:
            counts.append((str(arg), code_lines(path.read_text())))
    for name, n in sorted(counts, key=lambda item: -item[1]):
        print(f"{n:6d}  {name}")
    print(f"{sum(n for _, n in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
