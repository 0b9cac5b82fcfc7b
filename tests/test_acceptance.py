"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line on success (run with `pytest -v -s tests/test_acceptance.py`
to see them). The random-system criteria share one seeded batch of 200
systems so the equivalence and soundness sweeps see identical inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lemgap
from lemgap.engine import (
    RuleKind,
    check_proof,
    extract_proof,
    saturate,
)
from lemgap.formula import FormulaStore, parse, render, size
from lemgap.gap import DemoVariant, WitnessMode, demo_family, demo_system, gap_report
from lemgap.oracle import entails

from support import naive_closure, random_formula, random_system

SEED = 20260809
SYSTEM_COUNT = 200


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def random_systems():
    rng = random.Random(SEED)
    return [random_system(rng) for _ in range(SYSTEM_COUNT)]


def test_main_theorem_reproduction_eq1():
    started = time.perf_counter()
    system = demo_system(DemoVariant.EQ1)
    store = system.store

    result = saturate(system)
    assert result.stats.fixed_point_reached is True
    assert len(result.theorems) == 1

    gap = gap_report(system)
    assert [render(m.conclusion, store) for m in gap.gap] == ["q"]
    member = gap.gap[0]
    assert [render(w.pivot, store) for w in member.witnesses] == ["p"]
    assert member.verification.oracle_entailed is True
    assert member.verification.pivot_independent_semantically is True
    assert member.verification.pivot_absent_syntactically is True

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, tolerance 1s"
    report("main-theorem-reproduction-eq1")


def test_gap_closure():
    cases = [
        (demo_system(DemoVariant.EQ1), RuleKind.LBI_RULE),
        (demo_system(DemoVariant.EQ1), RuleKind.LEM_AXIOM),
        (demo_system(DemoVariant.TWO_BRANCH), RuleKind.CASE_SPLIT),
    ]
    for system, rule in cases:
        started = time.perf_counter()
        gap = gap_report(system, close_with=rule)
        assert gap.gap, "expected a nonempty gap before closure"
        assert gap.gap_closed is True, f"gap not closed by {rule.value}"
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{rule.value} closure took {elapsed:.3f}s, tolerance 1s"
    report("gap-closure")


def test_family_generalization():
    started = time.perf_counter()
    for n in range(1, 6):
        system = demo_family(n)
        gap = gap_report(system)
        store = system.store
        assert [render(m.conclusion, store) for m in gap.gap] == ["q"]
        member = gap.gap[0]
        assert len(member.witnesses) == n
        pivots = {render(w.pivot, store) for w in member.witnesses}
        assert pivots == {f"p{i}" for i in range(1, n + 1)}
        assert all(w.mode is WitnessMode.EQ1_SHAPE for w in member.witnesses)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s, tolerance 5s total"
    report("family-generalization")


def test_oracle_equivalence_on_random_systems(random_systems):
    started = time.perf_counter()
    for i, system in enumerate(random_systems):
        result = saturate(system)
        assert result.stats.fixed_point_reached is True, f"system {i} hit a bound"
        assert set(result.theorems) == naive_closure(system), f"system {i} diverged"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.3f}s, tolerance 60s"
    report(f"oracle-equivalence-{len(random_systems)}-systems")


def test_soundness_sweep(random_systems):
    split_rules = frozenset(
        {RuleKind.LBI_RULE, RuleKind.CASE_SPLIT, RuleKind.LEM_AXIOM}
    )
    violations = 0
    checked = 0
    for system in random_systems:
        for run_system in (system, system.with_rules(system.rules | split_rules)):
            result = saturate(run_system)
            store = run_system.store
            # LEM instances are tautologies, so entailment from the axioms
            # alone is the right-hand side for every enabled rule set.
            for theorem in result.theorems:
                checked += 1
                if not entails(run_system.axioms, theorem, store).holds:
                    violations += 1
    assert checked > 0
    assert violations == 0, f"{violations} unsound theorems out of {checked}"
    report(f"soundness-sweep-{checked}-theorems")


def test_parser_fuzz_round_trip():
    rng = random.Random(SEED + 1)
    store = FormulaStore()
    atoms = ("p", "q", "r", "s")
    failures = 0
    for _ in range(1000):
        f = random_formula(rng, atoms, rng.randint(1, 15), store)
        assert size(f, store) <= 15
        if parse(render(f, store), store) != f:
            failures += 1
    assert failures == 0
    report("parser-fuzz-1000-round-trips")


def test_byte_determinism_across_processes(tmp_path):
    # The subprocess runs in tmp_path, so a relative PYTHONPATH would not
    # resolve there; point it at the directory holding the package.
    # Each command runs under two hash seeds: no output may depend on the
    # iteration order of a set or dict of strings.
    package_root = str(Path(lemgap.__file__).resolve().parent.parent)

    def cli(*argv, hash_seed="1"):
        proc = subprocess.run(
            [sys.executable, "-m", "lemgap", *argv],
            capture_output=True,
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    eq1 = tmp_path / "eq1.json"
    two_branch = tmp_path / "two_branch.json"
    cli("demo", "--variant", "EQ1", "--out", str(eq1))
    cli("demo", "--variant", "TWO_BRANCH", "--out", str(two_branch))

    # Rules hash by identity, so a set of them iterates in address order,
    # which may differ between processes: a multi-step MP proof, and a run
    # of every rule S9 enables.
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"axioms": ["p", "p -> q", "q -> r", "r -> s"]}))
    s6 = tmp_path / "s6.json"
    s6.write_text(json.dumps({
        "axioms": ["p", "q -> r", "(p | ~p) -> q", "~s -> r"],
        "rules": ["MP", "AND_INTRO", "AND_ELIM_L", "AND_ELIM_R", "OR_INTRO"],
        "bounds": {"max_formula_size": 6},
    }))

    commands = [
        ("prove", "--format", "machine", "--system", str(chain), "--goal", "s"),
        ("enumerate", "--format", "machine", "--system", str(s6)),
        ("enumerate", "--format", "machine", "--system", str(eq1)),
        ("enumerate", "--format", "machine", "--system", str(two_branch)),
        ("gap", "--format", "machine", "--system", str(eq1), "--close-with", "LBI_RULE"),
        ("gap", "--format", "machine", "--system", str(two_branch),
         "--close-with", "CASE_SPLIT"),
    ]
    for command in commands:
        first = cli(*command, hash_seed="1")
        second = cli(*command, hash_seed="2")
        assert first == second, f"output of {command[0]} differs between hash seeds"
        json.loads(first)  # machine output is well-formed
    report("byte-determinism")


def test_proof_integrity(random_systems):
    demo_runs = [
        (demo_system(DemoVariant.EQ1), None),
        (demo_system(DemoVariant.EQ1), RuleKind.LBI_RULE),
        (demo_system(DemoVariant.EQ1), RuleKind.LEM_AXIOM),
        (demo_system(DemoVariant.TWO_BRANCH), RuleKind.CASE_SPLIT),
        (demo_family(3), RuleKind.LBI_RULE),
    ]
    checked = 0
    for system, extra in demo_runs:
        run_system = system if extra is None else system.with_rules(system.rules | {extra})
        result = saturate(run_system)
        for goal in result.theorems:
            proof = extract_proof(result, goal)
            assert check_proof(proof, run_system) is None
            checked += 1

    for system in random_systems[:60]:
        result = saturate(system)
        for goal in result.theorems:
            proof = extract_proof(result, goal)
            assert check_proof(proof, system) is None
            checked += 1

    # Tampering with any step's conclusion must be detected.
    chain = demo_system(DemoVariant.EQ1).with_rules({RuleKind.MP, RuleKind.LBI_RULE})
    result = saturate(chain)
    goal = parse("q", chain.store)
    proof = list(extract_proof(result, goal))
    for i in range(len(proof)):
        mutated = list(proof)
        bogus = chain.store.conj(proof[i].conclusion, proof[i].conclusion)
        mutated[i] = type(proof[i])(
            conclusion=bogus, rule=proof[i].rule, premises=proof[i].premises
        )
        assert check_proof(mutated, chain) is not None, f"mutation at step {i} missed"

    assert checked > 0
    report(f"proof-integrity-{checked}-proofs")
