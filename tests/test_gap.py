from __future__ import annotations

import itertools
import json
import random

import pytest

from lemgap.engine import (
    AxiomaticSystem,
    Bounds,
    RuleKind,
    apply_rule,
    load_system,
    saturate,
    system_document,
)
from lemgap.formula import FormulaStore, Not, render, size
from lemgap.gap import (
    DemoVariant,
    PreconditionViolated,
    WitnessMode,
    demo_family,
    demo_system,
    gap_report,
    lbi_accepted,
    report_document,
)
from lemgap.oracle import entails, independent

from support import naive_closure, random_formula, random_system

from test_engine import mk_system, theorem_texts


# --- lbi_accepted --------------------------------------------------------------

def test_lbi_accepted_shape_witness():
    system = demo_system(DemoVariant.EQ1)
    result = saturate(system)
    witnesses = lbi_accepted(result)
    assert len(witnesses) == 1
    w = witnesses[0]
    assert render(w.conclusion, system.store) == "q"
    assert render(w.pivot, system.store) == "p"
    assert w.mode is WitnessMode.EQ1_SHAPE
    assert w.source_indices == (0,)


def test_lbi_accepted_two_branch_witness():
    system = mk_system(["a -> y", "~a -> y"], [RuleKind.MP], atoms=("a", "y"))
    result = saturate(system)
    witnesses = lbi_accepted(result)
    assert len(witnesses) == 1
    w = witnesses[0]
    assert render(w.conclusion, system.store) == "y"
    assert render(w.pivot, system.store) == "a"
    assert w.mode is WitnessMode.TWO_BRANCH
    # Sources are exactly (positive branch, negative branch).
    assert render(result.theorems[w.source_indices[0]], system.store) == "a -> y"
    assert render(result.theorems[w.source_indices[1]], system.store) == "~a -> y"


def test_lbi_accepted_empty_enumeration():
    system = mk_system([], [RuleKind.MP], atoms=("p",))
    assert lbi_accepted(saturate(system)) == ()


def test_lbi_accepted_commuted_shape_and_dedup():
    system = mk_system(
        ["(p | ~p) -> q", "(~p | p) -> q"], [RuleKind.MP], atoms=("p", "q")
    )
    result = saturate(system)
    witnesses = lbi_accepted(result)
    # Both axioms witness the same (conclusion, pivot, mode) triple.
    assert len(witnesses) == 1


def test_lbi_accepted_both_modes_reported():
    system = mk_system(
        ["(p | ~p) -> q", "p -> q", "~p -> q"], [RuleKind.MP], atoms=("p", "q")
    )
    result = saturate(system)
    modes = {w.mode for w in lbi_accepted(result)}
    assert modes == {WitnessMode.EQ1_SHAPE, WitnessMode.TWO_BRANCH}


def _eq1_pivot(t, store):
    """The pivot x of a theorem reading `(x | ~x) -> y` or `(~x | x) -> y`."""
    disjunction = store.node(store.node(t).antecedent)
    if store.node(disjunction.right) == Not(disjunction.left):
        return disjunction.left
    return disjunction.right


def _accepted_by_apply_rule(result, store):
    """(conclusion, pivot, mode) triples accepted by the run's theorems,
    by brute force: apply_rule's LBI_RULE on every theorem and its
    CASE_SPLIT on every ordered theorem pair."""
    theorems = result.theorems
    out = set()
    for t in theorems:
        for conclusion in apply_rule(RuleKind.LBI_RULE, (t,), store):
            out.add((conclusion, _eq1_pivot(t, store), WitnessMode.EQ1_SHAPE))
    for first, second in itertools.product(theorems, repeat=2):
        for conclusion in apply_rule(RuleKind.CASE_SPLIT, (first, second), store):
            out.add((conclusion, store.node(first).antecedent, WitnessMode.TWO_BRANCH))
    return out


def _planted_system(rng):
    """Axioms `x -> y`, `~x -> y`, `(x | ~x) -> y` and `(~x | x) -> y` for
    random x and y, in random order, with a random extra axiom."""
    store = FormulaStore()
    atoms = ("a", "b", "c")
    x = random_formula(rng, atoms, rng.randint(1, 3), store)
    y = random_formula(rng, atoms, rng.randint(1, 2), store)
    not_x = store.neg(x)
    axioms = [
        store.impl(x, y),
        store.impl(not_x, y),
        store.impl(store.disj(x, not_x), y),
        store.impl(store.disj(not_x, x), y),
        random_formula(rng, atoms, rng.randint(1, 4), store),
    ]
    rng.shuffle(axioms)
    optional = (RuleKind.AND_ELIM_L, RuleKind.AND_ELIM_R)
    rules = {RuleKind.MP} | {r for r in optional if rng.random() < 0.5}
    return AxiomaticSystem(
        store=store,
        atoms=atoms,
        axioms=tuple(axioms),
        rules=frozenset(rules),
        bounds=Bounds(max_formula_size=max(size(f, store) for f in axioms)),
    )


def test_lbi_accepted_matches_apply_rule_brute_force():
    rng = random.Random(97)
    systems = [random_system(rng) for _ in range(40)] + [_planted_system(rng) for _ in range(40)]
    two_branch = 0
    for system in systems:
        store = system.store
        result = saturate(system)
        theorems = result.theorems
        witnesses = lbi_accepted(result)
        got = {(w.conclusion, w.pivot, w.mode) for w in witnesses}
        assert len(got) == len(witnesses)
        assert got == _accepted_by_apply_rule(result, store)
        for w in witnesses:
            premises = tuple(theorems[k] for k in w.source_indices)
            if w.mode is WitnessMode.EQ1_SHAPE:
                assert apply_rule(RuleKind.LBI_RULE, premises, store) == {w.conclusion}
                assert _eq1_pivot(premises[0], store) == w.pivot
                lowest = min(
                    k for k, t in enumerate(theorems)
                    if apply_rule(RuleKind.LBI_RULE, (t,), store) == {w.conclusion}
                    and _eq1_pivot(t, store) == w.pivot
                )
                assert w.source_indices == (lowest,)
            else:
                two_branch += 1
                assert apply_rule(RuleKind.CASE_SPLIT, premises, store) == {w.conclusion}
                assert store.node(premises[0]).antecedent == w.pivot
    # The planted systems give every planted pair a witness.
    assert two_branch >= 40


def test_queries_leave_the_store_unchanged():
    # `~r -> q` makes lbi_accepted look up `r -> q`, which was never
    # interned, and the gap member q makes gap_report ask the oracle and
    # the theorem list about the pivot p.
    system = mk_system(["(p | ~p) -> q", "~r -> q"], [RuleKind.MP])
    store = system.store
    result = saturate(system)
    saturate(system.with_rules(system.rules | {RuleKind.LBI_RULE}))
    before = len(store)
    assert len(lbi_accepted(result)) == 1
    report = gap_report(system, RuleKind.LBI_RULE)
    assert [render(m.conclusion, store) for m in report.gap] == ["q"]
    assert report.gap_closed is True
    assert len(store) == before


# --- gap_report ----------------------------------------------------------------

def test_gap_report_eq1_demo_closed_by_lbi_rule():
    report = gap_report(demo_system(DemoVariant.EQ1), close_with=RuleKind.LBI_RULE)
    store = report.system.store
    assert [render(m.conclusion, store) for m in report.gap] == ["q"]
    member = report.gap[0]
    assert member.verification.oracle_entailed is True
    assert member.verification.pivot_independent_semantically is True
    assert member.verification.pivot_absent_syntactically is True
    assert report.gap_closed is True
    assert "q" in theorem_texts(report.closure, store)


def test_gap_report_no_lbi_shapes_means_empty_gap():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    report = gap_report(system)
    assert report.gap == ()
    assert report.lbi_accepted == ()
    assert report.gap_closed is None
    assert report.closure is None


def test_gap_report_pivot_axiom_spoils_verification():
    # With p itself an axiom the conclusion stays unenumerated under MP
    # alone, but the pivot is neither independent nor absent.
    system = mk_system(["(p | ~p) -> q", "p"], [RuleKind.MP], atoms=("p", "q"))
    report = gap_report(system)
    store = system.store
    assert [render(m.conclusion, store) for m in report.gap] == ["q"]
    v = report.gap[0].verification
    assert v.oracle_entailed is True
    assert v.pivot_independent_semantically is False
    assert v.pivot_absent_syntactically is False


def test_gap_report_or_intro_closes_the_gap_without_case_split():
    system = mk_system(
        ["(p | ~p) -> q", "p"], [RuleKind.MP, RuleKind.OR_INTRO], atoms=("p", "q")
    )
    report = gap_report(system)
    assert report.gap == ()
    texts = theorem_texts(report.enumerated, system.store)
    assert "p | ~p" in texts and "q" in texts
    assert set(report.enumerated.theorems) == naive_closure(system)


def test_gap_report_rejects_case_split_style_base_rules():
    for rule in (RuleKind.LBI_RULE, RuleKind.CASE_SPLIT, RuleKind.LEM_AXIOM):
        system = mk_system(["(p | ~p) -> q"], [RuleKind.MP, rule], atoms=("p", "q"))
        with pytest.raises(PreconditionViolated):
            gap_report(system)


def test_gap_report_rejects_non_closing_rule():
    with pytest.raises(PreconditionViolated):
        gap_report(demo_system(DemoVariant.EQ1), close_with=RuleKind.AND_INTRO)


def test_gap_members_verified_against_oracle_directly():
    report = gap_report(demo_system(DemoVariant.EQ1))
    system = report.system
    store = system.store
    enumerated = set(report.enumerated.theorems)
    for member in report.gap:
        assert entails(system.axioms, member.conclusion, store).holds is True
        for w in member.witnesses:
            assert w.pivot not in enumerated
            assert store.neg(w.pivot) not in enumerated
            assert independent(system.axioms, w.pivot, store) is True


def test_gap_invariants_on_random_systems():
    import random

    from support import random_system
    from lemgap.gap import CLOSING_RULES

    rng = random.Random(61)
    reports = 0
    nonempty = 0
    while reports < 40:
        system = random_system(rng)
        if system.rules & CLOSING_RULES:
            continue
        reports += 1
        report = gap_report(system)
        store = system.store
        enumerated = set(report.enumerated.theorems)
        for member in report.gap:
            nonempty += 1
            # Accepted conclusions are entailed even when unenumerated.
            assert member.conclusion not in enumerated
            assert entails(system.axioms, member.conclusion, store).holds is True
            assert member.verification.oracle_entailed is True
            # The reported flags must equal direct oracle computation.
            pivots = {w.pivot for w in member.witnesses}
            assert member.verification.pivot_independent_semantically == all(
                independent(system.axioms, x, store) for x in pivots
            )
            assert member.verification.pivot_absent_syntactically == all(
                x not in enumerated and store.neg(x) not in enumerated for x in pivots
            )


# --- demo systems ---------------------------------------------------------------

def test_demo_system_eq1_definition():
    system = demo_system("EQ1")
    assert system.atoms == ("p", "q")
    assert [render(f, system.store) for f in system.axioms] == ["(p | ~p) -> q"]
    assert system.rules == frozenset({RuleKind.MP})
    result = saturate(system)
    assert len(result.theorems) == 1
    assert result.stats.fixed_point_reached is True


def test_demo_system_two_branch_definition():
    system = demo_system("TWO_BRANCH")
    assert system.atoms == ("rh", "y")
    assert [render(f, system.store) for f in system.axioms] == ["rh -> y", "~rh -> y"]
    assert system.rules == frozenset({RuleKind.MP})


def test_demo_two_branch_gap_closed_by_case_split():
    report = gap_report(demo_system(DemoVariant.TWO_BRANCH), close_with=RuleKind.CASE_SPLIT)
    store = report.system.store
    assert [render(m.conclusion, store) for m in report.gap] == ["y"]
    w = report.gap[0].witnesses[0]
    assert render(w.pivot, store) == "rh"
    assert w.mode is WitnessMode.TWO_BRANCH
    assert report.gap_closed is True


def test_demo_eq1_gap_closed_by_lem_axiom():
    report = gap_report(demo_system(DemoVariant.EQ1), close_with=RuleKind.LEM_AXIOM)
    assert report.gap_closed is True
    store = report.system.store
    texts = theorem_texts(report.closure, store)
    assert "p | ~p" in texts and "q" in texts


def test_demo_family_witness_counts():
    for n in (1, 2, 4):
        system = demo_family(n)
        report = gap_report(system)
        store = system.store
        assert [render(m.conclusion, store) for m in report.gap] == ["q"]
        member = report.gap[0]
        assert len(member.witnesses) == n
        assert {render(w.pivot, store) for w in member.witnesses} == {
            f"p{i}" for i in range(1, n + 1)
        }
        assert member.verification.oracle_entailed is True
        assert member.verification.pivot_independent_semantically is True
        assert member.verification.pivot_absent_syntactically is True


def test_demo_family_requires_positive_count():
    with pytest.raises(ValueError):
        demo_family(0)


def test_demo_system_round_trips_through_document():
    for variant in DemoVariant:
        system = demo_system(variant)
        doc = system_document(system)
        again = load_system(json.dumps(doc))
        assert system_document(again) == doc


# --- serialization ---------------------------------------------------------------

def test_report_document_schema_and_determinism():
    report_a = gap_report(demo_system(DemoVariant.EQ1), close_with=RuleKind.LBI_RULE)
    report_b = gap_report(demo_system(DemoVariant.EQ1), close_with=RuleKind.LBI_RULE)
    doc_a = report_document(report_a)
    doc_b = report_document(report_b)
    assert json.dumps(doc_a) == json.dumps(doc_b)
    assert list(doc_a) == ["base", "lbi_accepted", "gap", "closure", "gap_closed"]
    assert doc_a["gap"][0]["conclusion"] == "q"
    assert doc_a["gap"][0]["witnesses"] == [{"pivot": "p", "mode": "EQ1_SHAPE"}]
    assert doc_a["gap"][0]["verification"] == {
        "oracle_entailed": True,
        "pivot_independent_semantically": True,
        "pivot_absent_syntactically": True,
    }
    assert doc_a["gap_closed"] is True
    assert doc_a["closure"]["rule"] == "LBI_RULE"


def test_report_document_without_closure():
    doc = report_document(gap_report(demo_system(DemoVariant.EQ1)))
    assert doc["closure"] is None
    assert doc["gap_closed"] is None
