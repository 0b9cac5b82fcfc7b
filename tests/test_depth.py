"""Deep formulas: every structural walk is iterative, so depth is no limit.

None of these tests raises the interpreter's recursion limit; each input
is nested far deeper than that limit.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lemgap
from lemgap.cli import MAX_FORMULA_BYTES, main
from lemgap.formula import FormulaStore, atoms_of, parse, render
from lemgap.oracle import Verdict, classify, entails, evaluate

NEGATIONS = "~" * 10_000 + "p"
PARENTHESES = "(" * 10_000 + "p" + ")" * 10_000
IMPLICATIONS = " -> ".join(["p"] * 2_000 + ["q"])  # 2,001 atoms, right-nested

# Shapes that would need hundreds of MB if the oracle kept one 2**20-bit
# mask per subformula. A left-nested `&` of 4,096 atom occurrences cycling
# through 20 atoms, 16,381 bytes: every prefix is a distinct subformula.
ATOMS_20 = "abcdefghijklmnopqrst"
AND_CHAIN = " & ".join(ATOMS_20[i % 20] for i in range(4_096))
# A right-nested `->` of 1,428 distinct two-literal conjuncts, `(a&b) ->
# (a&~b) -> ...`: the parser interns every conjunct before any implication,
# so ascending index order would hold all their masks at once. A Tautology,
# because its first two conjuncts cannot both hold.
CONJUNCTS = [
    f"({p}{x}&{q}{y})"
    for x, y in itertools.permutations(ATOMS_20, 2)
    for p in ("", "~")
    for q in ("", "~")
][:1_428]
IMPLICATION_CHAIN = " -> ".join(CONJUNCTS)
# Its mirror image, left-nested, so the child of larger need is on the left:
# evaluating right children first would hold every conjunct's mask. A
# Tautology, because its first four conjuncts cover every value of a and b.
DISJUNCTION_CHAIN = " | ".join(CONJUNCTS)
# Masks kept beside those live in the walk: the 20 atom masks, and in the
# conjunct chains also the 20 negated atoms, each read by many conjuncts and
# so kept until its last one.
MEMORY_CASES = [
    (AND_CHAIN, "Contingent", 20),
    (IMPLICATION_CHAIN, "Tautology", 40),
    (DISJUNCTION_CHAIN, "Tautology", 40),
]
MEMORY_IDS = ["and-chain", "implication-chain", "disjunction-chain"]

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


def _address_space_cap(limit: int):
    """A `preexec_fn` capping the child's address space at `limit` bytes;
    the test process itself is not capped."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return cap


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
    path = tmp_path / "deep.json"
    doc = {"axioms": ["~" * 100_000 + "p"], "bounds": {"max_formula_size": 200_000}}
    path.write_text(json.dumps(doc))
    proc = _cli("enumerate", "--system", str(path), preexec_fn=_address_space_cap(1 << 30))
    assert proc.returncode == 1
    assert proc.stderr == "error: axioms[0]: formula longer than 16384 bytes\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("text, verdict, kept", MEMORY_CASES, ids=MEMORY_IDS)
def test_oracle_memory_bounded_cli(text, verdict, kept):
    # Keeping every subformula's mask takes about 570 MB on the `&` chain
    # and 400 MB on each conjunct chain; the child is capped at 256 MiB.
    assert len(text.encode()) <= MAX_FORMULA_BYTES
    proc = _cli("classify", text, preexec_fn=_address_space_cap(256 << 20))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{verdict}\n", "")


@pytest.mark.parametrize("text, verdict, kept", MEMORY_CASES, ids=MEMORY_IDS)
def test_oracle_memory_bounded_in_process(text, verdict, kept):
    # The traced peak of `classify` stays within a few 2**20-bit masks of
    # the masks every evaluation keeps (see MEMORY_CASES); the slack also
    # covers the walk's per-subformula ints.
    mask_bytes = (1 << 20) // 8
    store = FormulaStore()
    f = parse(text, store)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert classify(f, store).value == verdict
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= (kept + 16) * mask_bytes


def test_oracle_out_of_memory_cli(tmp_path):
    # What no evaluation order bounds: a shared subformula's mask lives until
    # its last reader. Axioms 0 and 1 are disjunctions of 1,600 distinct
    # three-literal conjuncts each, read again by axioms 2 and 3, so all
    # 3,200 masks (about 400 MB) are live at once. Under a 256 MiB cap the
    # child ends in exit 5 with one stderr line, not a traceback.
    conjuncts = [
        f"({p}{x}&{q}{y}&{r}{z})"
        for x, y, z in itertools.permutations(ATOMS_20, 3)
        for p in ("", "~")
        for q in ("", "~")
        for r in ("", "~")
    ]
    halves = conjuncts[:1_600], conjuncts[1_600:3_200]
    axioms = ["|".join(h) for h in halves] + ["|".join(reversed(h)) for h in halves]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"axioms": axioms, "bounds": {"max_formula_size": 100_000}}))
    argv = ("classify", "--entails", "a", "--system", str(path))
    proc = _cli(*argv, preexec_fn=_address_space_cap(256 << 20))
    assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", "error: out of memory\n")


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
