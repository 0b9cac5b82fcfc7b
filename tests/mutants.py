"""Mutation check of `src/lemgap/`: flip one operator at a time and run
tier-1 against each mutant.

A mutant flips one comparison operator (`<`/`<=`, `>`/`>=`, `==`/`!=`,
`in`/`not in`, `is`/`is not`) or one boolean operator (`and`/`or`). The
module is parsed with `ast`, the operator flipped in the tree, and the
tree written back with `ast.unparse` into a copy of the checkout under a
temporary directory. Tier-1 then runs there with `-x`: the mutant is
killed when it fails or exceeds a time limit, and survives when it
passes. The copy's unflipped modules are written the same way and must
pass first, so a survivor is the flip alone.

Prints one line per survivor, `module:line: source line  (old -> new)`,
then the counts. Stdlib only, though tier-1 itself needs pytest and
hypothesis; not part of tier-1 or CI. Run it from anywhere with

    python tests/mutants.py [module[:function,...] ...]

where a module is a file of `src/lemgap/`, such as `oracle.py` (all of
them by default). `engine.py:run_and_intro,run_or_intro` flips only the
operators inside the functions or methods of those names. A run over
`oracle.py formula.py engine.py`, about 200 mutants, takes about 25
minutes on two cores: a mutant that survives runs the whole suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lemgap"

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or",
}
_TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]


def _sites(tree: ast.AST, functions: frozenset[str] | None = None) -> list[tuple[ast.AST, int]]:
    """Each flippable operator of the tree, in `ast.walk` order: a
    comparison node with the position of one of its operators, or a
    boolean node with -1. With `functions`, only the operators inside a
    function or method of one of those names."""
    roots = [tree] if functions is None else [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in functions
    ]
    sites = []
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                sites += [(node, k) for k in range(len(node.ops))]
            elif isinstance(node, ast.BoolOp):
                sites.append((node, -1))
    return sites


def _functions(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def mutants(text: str, functions: frozenset[str] | None = None):
    """(line, old, new, source) for each one-operator mutant of a module's
    text, or of the named functions in it: the line of the flipped
    operator's expression, the operator before and after, and the mutant
    module's source."""
    for m, (node, _) in enumerate(_sites(ast.parse(text), functions)):
        tree = ast.parse(text)  # a fresh tree to flip, holding the same sites
        target, k = _sites(tree, functions)[m]
        old = type(target.op if k < 0 else target.ops[k])
        if k < 0:
            target.op = _FLIPS[old]()
        else:
            target.ops[k] = _FLIPS[old]()
        yield node.lineno, _SYMBOLS[old], _SYMBOLS[_FLIPS[old]], ast.unparse(tree)


def _tier1(copy: Path, timeout: float) -> bool:
    """Does tier-1 pass in the copy within `timeout` seconds?"""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(_TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(names: list[str]) -> int:
    # Each module's path -> the names of the functions to mutate, or None.
    targets = {PACKAGE / name: frozenset(functions.split(",")) if functions else None
               for name, _, functions in (name.partition(":") for name in names)}
    targets = targets or dict.fromkeys(sorted(PACKAGE.glob("*.py")))
    paths = list(targets)
    for path, functions in targets.items():
        if not path.is_file():
            print(f"no module {path.name} in {PACKAGE}", file=sys.stderr)
            return 2
        missing = sorted((functions or set()) - _functions(ast.parse(path.read_text("utf-8"))))
        if missing:
            print(f"no function {', '.join(missing)} in {path.name}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as directory:
        copy = Path(directory) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        texts = {path: path.read_text(encoding="utf-8") for path in paths}
        for path, text in texts.items():
            (copy / path.relative_to(ROOT)).write_text(ast.unparse(ast.parse(text)), "utf-8")
        started = time.monotonic()
        if not _tier1(copy, timeout=3600):
            print("tier-1 fails on the unmutated copy; no mutant was run", file=sys.stderr)
            return 2
        timeout = 3 * (time.monotonic() - started) + 30
        survivors, count = [], 0
        for path, text in texts.items():
            target = copy / path.relative_to(ROOT)
            lines = text.splitlines()
            for line, old, new, source in mutants(text, targets[path]):
                count += 1
                target.write_text(source, encoding="utf-8")
                if _tier1(copy, timeout):
                    survivors.append(f"{path.name}:{line}: {lines[line - 1].strip()}  "
                                     f"({old} -> {new})")
                    print(f"survived: {survivors[-1]}", file=sys.stderr)
            target.write_text(ast.unparse(ast.parse(text)), encoding="utf-8")
    for survivor in survivors:
        print(survivor)
    print(f"{count} mutants of {len(paths)} modules: {count - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
