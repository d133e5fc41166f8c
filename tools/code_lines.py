"""Count the code lines of each ``src/adiophantine`` module.

A code line is a source line that holds a token other than a comment: blank
lines, comment-only lines and the lines of module, class and function
docstrings are not counted.  Prints one line per module and the total;
then each module's module-level constants, the names in ALL CAPS (a
leading underscore allowed) that its top-level assignments bind, and their
total, so that a tuning constant added or removed shows; then the option
count: the settings each subcommand takes (``cli.SETTINGS``), their total,
and the fields of ``DecideConfig``; and last the public surface, the
number of names in ``adiophantine.__all__``.

Run from the repository root: ``python tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import re
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


_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants(source: str) -> list[str]:
    """The ALL-CAPS names bound by the top-level assignments of the Python
    ``source``, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [
            t.id for t in targets if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id)
        ]
    return names


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
    total, constants = 0, {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count = code_lines(source)
        total += count
        constants[path.name] = module_constants(source)
        print(f"{path.name:20} {count:5d}")
    print(f"{'total':20} {total:5d}")
    print()
    print("module constants")
    for name, names in constants.items():
        print(f"{name:20} {len(names):5d}  {' '.join(names)}".rstrip())
    print(f"{'total constants':20} {sum(map(len, constants.values())):5d}")
    print()
    for command, settings in SETTINGS.items():
        print(f"{command + ' settings':20} {len(settings):5d}")
    print(f"{'total settings':20} {sum(map(len, SETTINGS.values())):5d}")
    print(f"{'DecideConfig fields':20} {len(fields(DecideConfig)):5d}")
    print(f"{'public names':20} {len(adiophantine.__all__):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
