"""The golden CLI corpus. Each case, its argv and the files it reads,
is defined once, in `_cases()`; `tests/cli_corpus.json` holds only its
pin, keyed by case id: the exit code, the SHA-256 of stdout and the
exact stderr that `lemgap.cli.main` gives.

`tests/test_cli.py::test_cli_corpus` replays every case of `_cases()`
against its pin. To rewrite the pins from the code as it stands, run
from the checkout:

    PYTHONPATH=src python tests/cli_corpus.py

It prints the id of every case whose pin it changed, added or dropped
against the file it replaces, or that none moved.

Each case runs in a fresh empty directory holding its files, so every
path in argv and in the output is relative. A file is a system document,
written as `json.dumps` writes it, or a raw text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")

EQ1 = {"atoms": ["p", "q"], "axioms": ["(p | ~p) -> q"], "rules": ["MP"]}
TWO_BRANCH = {"atoms": ["rh", "y"], "axioms": ["rh -> y", "~rh -> y"], "rules": ["MP"]}
CHAIN = {"axioms": ["a", "a -> b", "b -> c"], "rules": ["MP"]}
# The S9 benchmark system. The corpus runs it at max_formula_size 7 (S7,
# 6,300 theorems), whose outputs pin theorem order, proof indices and
# stats at scale; `tests/test_engine.py` pins its proof steps.
S9 = {
    "atoms": ["p", "q", "r", "s"],
    "axioms": ["p", "q -> r", "(p | ~p) -> q", "~s -> r"],
    "rules": ["MP", "AND_INTRO", "AND_ELIM_L", "AND_ELIM_R", "OR_INTRO"],
}
# Generations of one theorem each, then one of two: the boundary of the
# canonical sort, which a generation of fewer than two theorems skips.
WIDEN = {"axioms": ["a", "a -> b", "b -> c & d"], "rules": ["MP", "AND_ELIM_L", "AND_ELIM_R"]}
GROW = {"axioms": ["p", "q"], "rules": ["AND_INTRO"]}
LBI = {"axioms": ["(p | ~p) -> q"], "rules": ["MP", "LBI_RULE"]}
# `~r | s` is a near miss of the LBI antecedent `~x | x`.
NEAR_MISS = {"axioms": ["(~r | s) -> q"], "rules": ["MP"]}
SPLIT = {"axioms": ["rh -> y", "~rh -> y"], "rules": ["MP", "CASE_SPLIT"]}
RANGED = {"axioms": ["p", "q -> r"], "rules": ["MP", "AND_INTRO", "OR_INTRO", "LEM_AXIOM"]}
SIDE = {"axioms": ["p"], "side_formulas": ["q & r"], "rules": ["OR_INTRO"],
        "bounds": {"max_formula_size": 5}}
FAMILY = {"atoms": ["p1", "p2", "p3", "q"],
          "axioms": ["(p1 | ~p1) -> q", "(p2 | ~p2) -> q", "(p3 | ~p3) -> q"]}
WIDE = {
    "axioms": [" | ".join(f"x{i}" for i in range(21))],
    "bounds": {"max_formula_size": 60},
}

# Bounds a system file may hold that `Bounds` rejects, one case each: the
# last three hold two bad values, so their errors pin which is named first.
BAD_BOUNDS = {
    "generations-zero": {"max_generations": 0},
    "size-negative": {"max_formula_size": -1},
    "theorems-string": {"max_theorems": "lots"},
    "theorems-float": {"max_theorems": 2.5},
    "size-float": {"max_formula_size": 9.0},
    "generations-bool": {"max_generations": True},
    "theorems-null": {"max_theorems": None},
    "unknown-key": {"weird": 3},
    "two-types": {"max_theorems": "lots", "max_formula_size": "big"},
    "type-after-sign": {"max_formula_size": 0, "max_generations": "x"},
    "two-signs": {"max_theorems": 0, "max_generations": -2},
}


def _cases() -> list[tuple[str, dict, list[str]]]:
    """(id, files, argv) of every case. `both` adds a case in each output
    format, `one` a single case."""
    cases = []

    def both(case_id: str, files: dict, *argv: str) -> None:
        cases.append((case_id, files, list(argv)))
        cases.append((case_id + "-machine", files, [*argv, "--format", "machine"]))

    def one(case_id: str, files: dict, *argv: str) -> None:
        cases.append((case_id, files, list(argv)))

    eq1, two, chain = {"eq1.json": EQ1}, {"two.json": TWO_BRANCH}, {"chain.json": CHAIN}

    both("parse", {}, "parse", "(p|~p)->q")
    both("parse-unicode", {}, "parse", "¬p ∧ q → r ∨ s")
    both("parse-error", {}, "parse", "p->")
    one("parse-error-multibyte", {}, "parse", "¬p ∧ §")
    one("parse-rejects-system", eq1, "parse", "p", "--system", "eq1.json")
    one("parse-rejects-max-size", {}, "parse", "p", "--max-size", "3")

    both("classify-tautology", {}, "classify", "p|~p")
    both("classify-contradiction", {}, "classify", "p&~p")
    both("classify-contingent", {}, "classify", "p->q")
    both("classify-atom-limit", {}, "classify", "|".join(f"x{i}" for i in range(21)))
    both("classify-entails", eq1, "classify", "--entails", "q", "--system", "eq1.json")
    both("classify-countermodel", eq1, "classify", "--entails", "p", "--system", "eq1.json")
    both("classify-independent", eq1, "classify", "--independent", "p", "--system", "eq1.json")
    both("classify-entails-atom-limit", {"wide.json": WIDE},
         "classify", "--entails", "y", "--system", "wide.json")
    one("classify-entails-needs-system", {}, "classify", "--entails", "q")
    one("classify-two-modes", eq1,
        "classify", "--entails", "q", "--independent", "p", "--system", "eq1.json")
    one("classify-no-argument", {}, "classify")
    one("classify-system-only", eq1, "classify", "--system", "eq1.json")
    one("classify-formula-and-entails", eq1,
        "classify", "p|~p", "--entails", "q", "--system", "eq1.json")
    one("classify-formula-with-system", eq1, "classify", "p", "--system", "eq1.json")
    one("classify-max-size", {}, "classify", "p", "--max-size", "0")
    one("classify-entails-max-size", eq1,
        "classify", "--entails", "q", "--system", "eq1.json", "--max-size", "3")
    one("classify-entails-max-size-no-system", {},
        "classify", "--entails", "q", "--max-size", "3")

    both("enumerate-eq1", eq1, "enumerate", "--system", "eq1.json")
    both("enumerate-chain", chain, "enumerate", "--system", "chain.json")
    both("enumerate-widen", {"widen.json": WIDEN}, "enumerate", "--system", "widen.json")
    both("enumerate-max-size", {"grow.json": GROW},
         "enumerate", "--system", "grow.json", "--max-size", "3")
    both("enumerate-max-generations", chain,
         "enumerate", "--system", "chain.json", "--max-generations", "1")
    both("enumerate-max-theorems", {"cut.json": {**CHAIN, "bounds": {"max_theorems": 3}}},
         "enumerate", "--system", "cut.json")
    both("enumerate-side-formulas", {"side.json": SIDE}, "enumerate", "--system", "side.json")
    one("enumerate-both-overrides", {"grow.json": GROW},
        "enumerate", "--system", "grow.json", "--max-size", "5", "--max-generations", "1",
        "--format", "machine")
    one("enumerate-max-size-zero", {"grow.json": GROW},
        "enumerate", "--system", "grow.json", "--max-size", "0")
    one("enumerate-max-generations-negative", chain,
        "enumerate", "--system", "chain.json", "--max-generations", "-1")
    one("enumerate-max-size-below-axiom", eq1,
        "enumerate", "--system", "eq1.json", "--max-size", "3")
    one("enumerate-max-size-not-int", eq1,
        "enumerate", "--system", "eq1.json", "--max-size", "2.5")
    one("enumerate-needs-system", {}, "enumerate")
    one("enumerate-missing-file", {}, "enumerate", "--system", "missing.json")
    for name, bounds in BAD_BOUNDS.items():
        one(f"bounds-{name}", {"bad.json": {"axioms": ["p"], "bounds": bounds}},
            "enumerate", "--system", "bad.json")
    one("bounds-not-an-object", {"bad.json": {"axioms": ["p"], "bounds": [1]}},
        "enumerate", "--system", "bad.json")
    one("document-unknown-key", {"bad.json": {"axioms": [], "extra": 1}},
        "enumerate", "--system", "bad.json")
    one("document-unknown-rule", {"bad.json": {"rules": ["MP", "MODUS_TOLLENS"]}},
        "enumerate", "--system", "bad.json")
    one("document-invalid-json", {"bad.json": "{not json"}, "enumerate", "--system", "bad.json")

    both("prove-not-derived", eq1, "prove", "--system", "eq1.json", "--goal", "q")
    both("prove-axiom", eq1, "prove", "--system", "eq1.json", "--goal", "(p|~p)->q")
    both("prove-mp", chain, "prove", "--system", "chain.json", "--goal", "c")
    both("prove-widen", {"widen.json": WIDEN}, "prove", "--system", "widen.json", "--goal", "d")
    both("prove-lbi-rule", {"lbi.json": LBI}, "prove", "--system", "lbi.json", "--goal", "q")
    both("prove-case-split", {"split.json": SPLIT},
         "prove", "--system", "split.json", "--goal", "y")
    both("prove-or-intro-lem", {"ranged.json": RANGED},
         "prove", "--system", "ranged.json", "--goal", "(p|q)&(r|~r)")
    both("prove-max-generations", chain,
         "prove", "--system", "chain.json", "--goal", "c", "--max-generations", "1")
    one("prove-max-theorems", {"cut.json": {**CHAIN, "bounds": {"max_theorems": 3}}},
        "prove", "--system", "cut.json", "--goal", "c")
    one("prove-max-size", chain, "prove", "--system", "chain.json", "--goal", "c",
        "--max-size", "3", "--format", "machine")
    one("prove-goal-parse-error", chain, "prove", "--system", "chain.json", "--goal", "c ->")
    one("prove-needs-goal", chain, "prove", "--system", "chain.json")

    both("gap-eq1", eq1, "gap", "--system", "eq1.json")
    both("gap-two-branch", two, "gap", "--system", "two.json")
    for rule in ("LBI_RULE", "LEM_AXIOM", "CASE_SPLIT"):
        both(f"gap-eq1-{rule}", eq1, "gap", "--system", "eq1.json", "--close-with", rule)
        both(f"gap-two-branch-{rule}", two,
             "gap", "--system", "two.json", "--close-with", rule)
    # Each of `p` and `p & r` makes the pivot `p` of EQ1's gap member
    # entailed, so `pivot_independent` is false; only the axiom `p`
    # puts it in the theorem list, so `pivot_absent` is false.
    both("gap-pivot-axiom", {"pivot.json": {"axioms": ["(p | ~p) -> q", "p"]}},
         "gap", "--system", "pivot.json")
    both("gap-pivot-entailed", {"pivot.json": {"axioms": ["(p | ~p) -> q", "p & r"]}},
         "gap", "--system", "pivot.json")
    both("gap-family", {"family.json": FAMILY},
         "gap", "--system", "family.json", "--close-with", "LBI_RULE")
    # No gap, and the closing rule derives nothing: `q` does not follow.
    both("gap-near-miss", {"near.json": NEAR_MISS},
         "gap", "--system", "near.json", "--close-with", "LBI_RULE")
    one("gap-max-generations", chain,
        "gap", "--system", "chain.json", "--max-generations", "1", "--format", "machine")
    one("gap-max-size-below-axiom", two, "gap", "--system", "two.json", "--max-size", "2")
    one("gap-closing-rule-in-base", {"lbi.json": LBI}, "gap", "--system", "lbi.json")

    both("demo-eq1", {}, "demo", "--variant", "EQ1", "--out", "eq1.json")
    both("demo-two-branch", {}, "demo", "--variant", "TWO_BRANCH", "--out", "two.json")
    one("demo-unwritable", {}, "demo", "--variant", "EQ1", "--out", "no_such_dir/d.json")
    one("demo-rejects-system", eq1,
        "demo", "--variant", "EQ1", "--out", "d.json", "--system", "eq1.json")
    one("demo-rejects-max-generations", {},
        "demo", "--variant", "EQ1", "--out", "d.json", "--max-generations", "2")

    s7 = {"s7.json": {**S9, "bounds": {"max_formula_size": 7}}}
    both("s7-enumerate", s7, "enumerate", "--system", "s7.json")
    for rule in ("LBI_RULE", "LEM_AXIOM", "CASE_SPLIT"):
        both(f"s7-gap-{rule}", s7, "gap", "--system", "s7.json", "--close-with", rule)
    both("s7-prove", s7, "prove", "--system", "s7.json", "--goal", "r")
    return cases


def write_files(files: dict, directory: Path) -> None:
    """Write a case's files into `directory`."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_text(text, encoding="utf-8")


def _run(argv: list[str]) -> tuple[int, str, str]:
    from lemgap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def build() -> dict[str, dict]:
    """The pin of every case, by id: the exit code, stdout digest and
    stderr it gives now."""
    pins = {}
    start = os.getcwd()
    for case_id, files, argv in _cases():
        with tempfile.TemporaryDirectory() as directory:
            write_files(files, Path(directory))
            os.chdir(directory)
            try:
                code, out, err = _run(argv)
            finally:
                os.chdir(start)
        pins[case_id] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stderr": err,
        }
    return pins


def read_pins() -> dict[str, dict]:
    """The pins `tests/cli_corpus.json` holds, by case id."""
    return json.loads(CORPUS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    old = read_pins() if CORPUS.exists() else {}
    pins = build()
    CORPUS.write_text(json.dumps(pins, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {CORPUS}", file=sys.stderr)
    changes = {
        "moved": [i for i in pins if i in old and pins[i] != old[i]],
        "added": [i for i in pins if i not in old],
        "dropped": [i for i in old if i not in pins],
    }
    for change, ids in changes.items():
        for case_id in ids:
            print(f"{change}: {case_id}")
    if not changes["moved"]:
        print("no pin moved")
