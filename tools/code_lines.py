"""Count the code lines of each ``src/adiophantine`` module.

A code line is a source line that holds a token other than a comment: blank
lines, comment-only lines and the lines of module, class and function
docstrings are not counted.  Prints one line per module and the total,
then the option count: the settings each subcommand takes
(``cli.SETTINGS``), their total, and the fields of ``DecideConfig``; and
last the public surface, the number of names in ``adiophantine.__all__``.

Run from the repository root: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from dataclasses import fields
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adiophantine"
sys.path.insert(0, str(PACKAGE.parent))

import adiophantine  # noqa: E402
from adiophantine.cli import SETTINGS  # noqa: E402
from adiophantine.decision import DecideConfig  # noqa: E402

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, classes' and functions'
    docstrings."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, scopes) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:5d}")
    print(f"{'total':20} {total:5d}")
    print()
    for command, settings in SETTINGS.items():
        print(f"{command + ' settings':20} {len(settings):5d}")
    print(f"{'total settings':20} {sum(map(len, SETTINGS.values())):5d}")
    print(f"{'DecideConfig fields':20} {len(fields(DecideConfig)):5d}")
    print(f"{'public names':20} {len(adiophantine.__all__):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
