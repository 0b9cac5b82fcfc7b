"""Count the code lines of each module of `src/lemgap/`.

A code line is a line that holds part of a token other than a comment:
blank lines, comment lines and the lines of module, class and function
docstrings are not counted. Prints one line per module, sorted by name,
then the total. Stdlib only; run it with

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lemgap"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(text: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(text))


def main() -> None:
    counts = {path.stem: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<10} {count:>6,}")
    print(f"{'total':<10} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
