"""Deep formulas: every structural walk is iterative, so depth is no limit.

None of these tests raises the interpreter's recursion limit; each input
is nested far deeper than that limit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lemgap
from lemgap.cli import MAX_FORMULA_BYTES, main
from lemgap.formula import FormulaStore, atoms_of, parse, render
from lemgap.oracle import Verdict, classify, entails, evaluate

NEGATIONS = "~" * 10_000 + "p"
PARENTHESES = "(" * 10_000 + "p" + ")" * 10_000
IMPLICATIONS = " -> ".join(["p"] * 2_000 + ["q"])  # 2,001 atoms, right-nested

CASES = [
    # text, canonical text, atoms, verdict, (assignment, value), (axiom, entailment)
    (NEGATIONS, NEGATIONS, ("p",), Verdict.CONTINGENT, ({"p": False}, False), ("p", (True, None))),
    (
        PARENTHESES,
        "p",
        ("p",),
        Verdict.CONTINGENT,
        ({"p": True}, True),
        ("~p", (False, {"p": False})),
    ),
    (
        IMPLICATIONS,
        IMPLICATIONS,
        ("p", "q"),
        Verdict.CONTINGENT,
        ({"p": True, "q": False}, False),
        ("p", (False, {"p": True, "q": False})),
    ),
]


@pytest.mark.parametrize(
    "text, canonical, atoms, verdict, evaluation, entailment",
    CASES,
    ids=["negations", "parentheses", "implications"],
)
def test_deep_formula_library(text, canonical, atoms, verdict, evaluation, entailment):
    store = FormulaStore()
    f = parse(text, store)
    assert render(f, store) == canonical
    assert parse(render(f, store), store) == f
    assert atoms_of(f, store) == atoms
    assert classify(f, store) is verdict
    assignment, value = evaluation
    assert evaluate(f, assignment, store) is value
    axiom, expected = entailment
    assert entails([parse(axiom, store)], f, store) == expected


def _cli(*argv, preexec_fn=None):
    # An absolute PYTHONPATH, so the subprocess finds this checkout from
    # any working directory.
    package_root = str(Path(lemgap.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "lemgap", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        preexec_fn=preexec_fn,
    )


def test_deep_negations_cli():
    proc = _cli("parse", NEGATIONS)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{NEGATIONS}\nsize: 10001\natoms: p\n"


def test_deep_parentheses_cli():
    proc = _cli("parse", "(" * 8_000 + "p" + ")" * 8_000)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "p\nsize: 1\natoms: p\n"


def test_oversized_formula_cli():
    proc = _cli("parse", "~" * MAX_FORMULA_BYTES + "p")
    assert proc.returncode == 2
    assert proc.stderr == "parse error: formula longer than 16384 bytes at offset 16384\n"
    assert proc.stdout == ""


def test_oversized_axiom_in_a_system_file_cli(tmp_path):
    # A 100 KB file, under the 1 MiB cap. Rendering this axiom would cache
    # the text of each of its 100,001 subformulas, about 5 * 10^9
    # characters, so the child runs with its address space capped at 1 GiB.
    resource = pytest.importorskip("resource")
    gib = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (gib, gib))

    path = tmp_path / "deep.json"
    doc = {"axioms": ["~" * 100_000 + "p"], "bounds": {"max_formula_size": 200_000}}
    path.write_text(json.dumps(doc))
    proc = _cli("enumerate", "--system", str(path), preexec_fn=cap_memory)
    assert proc.returncode == 1
    assert proc.stderr == "error: axioms[0]: formula longer than 16384 bytes\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "{f}"],
        ["classify", "{f}"],
        ["classify", "--entails", "{f}", "--system", "{system}"],
        ["classify", "--independent", "{f}", "--system", "{system}"],
        ["prove", "--goal", "{f}", "--system", "{system}"],
    ],
    ids=["parse", "classify", "entails", "independent", "goal"],
)
def test_formula_byte_limit(argv, tmp_path, capsys):
    system = str(tmp_path / "eq1.json")
    assert main(["demo", "--variant", "EQ1", "--out", system]) == 0
    capsys.readouterr()
    # Whitespace keeps the formula at the limit cheap to parse. The limit
    # counts bytes, not characters: one two-byte space tips it over.
    at_limit = "p" + " " * (MAX_FORMULA_BYTES - 1)
    over_limit = "p" + "\u00a0" + " " * (MAX_FORMULA_BYTES - 2)
    assert len(over_limit) == MAX_FORMULA_BYTES
    assert main([a.format(f=at_limit, system=system) for a in argv]) != 2
    assert "parse error" not in capsys.readouterr().err
    assert main([a.format(f=over_limit, system=system) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: formula longer than 16384 bytes at offset 16384\n"
