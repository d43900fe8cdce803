"""Count the total lines and the code lines of each module of the package.

A code line is a line on which some token other than a comment, a newline
or an indent starts, outside the module, class and function docstrings.
Run from anywhere:

    python3 tools/src_lines.py [package directory]

The directory defaults to `src/drinfeld_forge` beside this script. Only the
standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drinfeld_forge"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The first line of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(first.lineno)
    return out


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    with path.open("rb") as handle:
        starts = {tok.start[0] for tok in tokenize.tokenize(handle.readline)
                  if tok.type not in _SKIPPED}
    return len(text.splitlines()), len(starts - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = code = 0
    print(f"{'module':<20} {'lines':>7} {'code':>7}")
    for path in sorted(package.glob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.name:<20} {lines:>7,} {code_lines:>7,}")
    print(f"{package.name + '/':<20} {total:>7,} {code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
