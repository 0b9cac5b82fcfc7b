from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import replace

import pytest

from lemgap import engine
from lemgap.engine import (
    ArityMismatch,
    AxiomTooLarge,
    AxiomaticSystem,
    Bounds,
    ConfigError,
    InvalidStep,
    NotDerived,
    ProofStep,
    RuleKind,
    Stats,
    apply_rule,
    check_proof,
    extract_proof,
    load_system,
    saturate,
    system_document,
)
from lemgap.formula import FormulaStore, parse, render, size
from lemgap.gap import gap_report
from lemgap.oracle import entails

from support import naive_closure, random_system


def mk_system(axiom_texts, rules, atoms=None, **bound_args):
    if atoms is None:
        doc = {"axioms": axiom_texts, "rules": [r.value for r in rules]}
        if bound_args:
            doc["bounds"] = bound_args
        return load_system(json.dumps(doc))
    store = FormulaStore()
    return AxiomaticSystem(
        store=store,
        atoms=tuple(atoms),
        axioms=tuple(parse(t, store) for t in axiom_texts),
        rules=frozenset(rules),
        bounds=Bounds(**bound_args) if bound_args else Bounds(),
    )


def theorem_texts(result, store):
    return [render(f, store) for f in result.theorems]


# --- load_system --------------------------------------------------------------

def test_load_system_minimal_document():
    system = load_system('{"axioms": ["(p | ~p) -> q"], "rules": ["MP"]}')
    assert len(system.axioms) == 1
    assert system.rules == frozenset({RuleKind.MP})
    assert system.atoms == ("p", "q")  # inferred
    assert system.bounds == Bounds(12, 50, 100_000)


def test_load_system_empty_axioms():
    system = load_system('{"axioms": []}')
    assert system.axioms == ()
    assert system.rules == frozenset({RuleKind.MP})  # default
    result = saturate(system)
    assert result.theorems == ()
    assert result.stats.fixed_point_reached is True


def test_load_system_bad_axiom_names_field():
    with pytest.raises(ConfigError) as err:
        load_system('{"axioms": ["p ->"]}')
    assert err.value.field == "axioms[0]"


def test_load_system_unknown_key_is_strict():
    with pytest.raises(ConfigError) as err:
        load_system('{"axioms": [], "extra": 1}')
    assert err.value.field == "extra"


def test_load_system_unknown_rule_names_field():
    with pytest.raises(ConfigError) as err:
        load_system('{"axioms": [], "rules": ["MP", "MODUS_TOLLENS"]}')
    assert err.value.field == "rules[1]"


def test_load_system_axiom_too_large():
    doc = {"axioms": ["(p | ~p) -> q"], "bounds": {"max_formula_size": 5}}
    with pytest.raises(AxiomTooLarge):
        load_system(json.dumps(doc))


def test_load_system_bounds_validation():
    with pytest.raises(ConfigError) as err:
        load_system('{"axioms": [], "bounds": {"max_generations": 0}}')
    assert err.value.field == "bounds.max_generations"
    with pytest.raises(ConfigError):
        load_system('{"axioms": [], "bounds": {"weird": 3}}')
    with pytest.raises(ConfigError):
        load_system('{"axioms": [], "bounds": {"max_theorems": "lots"}}')
    # With several bad bounds the first in `Bounds` field order is named,
    # whatever the hash seed.
    with pytest.raises(ConfigError) as err:
        load_system('{"bounds": {"max_theorems": "lots", "max_formula_size": "big"}}')
    assert err.value.field == "bounds.max_formula_size"


def test_load_system_undeclared_atom():
    with pytest.raises(ConfigError) as err:
        load_system('{"atoms": ["p"], "axioms": ["p -> q"]}')
    assert err.value.field == "axioms[0]"


def test_load_system_invalid_json():
    with pytest.raises(ConfigError):
        load_system("{not json")
    with pytest.raises(ConfigError):
        load_system("[1, 2]")


def test_system_document_round_trip():
    system = load_system(
        json.dumps(
            {
                "atoms": ["p", "q"],
                "axioms": ["(p | ~p) -> q"],
                "rules": ["MP", "OR_INTRO"],
                "side_formulas": ["p & q"],
                "bounds": {"max_formula_size": 9, "max_generations": 7, "max_theorems": 44},
            }
        )
    )
    doc = system_document(system)
    again = load_system(json.dumps(doc))
    assert system_document(again) == doc


# --- apply_rule ---------------------------------------------------------------

def test_apply_rule_mp():
    store = FormulaStore()
    p = parse("p", store)
    imp = parse("p -> q", store)
    q = parse("q", store)
    assert apply_rule(RuleKind.MP, (p, imp), store) == {q}
    assert apply_rule(RuleKind.MP, (q, imp), store) == frozenset()
    assert apply_rule(RuleKind.MP, (p, q), store) == frozenset()


def test_apply_rule_lbi():
    store = FormulaStore()
    f = parse("(p | ~p) -> q", store)
    assert apply_rule(RuleKind.LBI_RULE, (f,), store) == {parse("q", store)}
    assert apply_rule(RuleKind.LBI_RULE, (parse("p -> q", store),), store) == frozenset()


def test_apply_rule_case_split():
    store = FormulaStore()
    pos = parse("p -> y", store)
    neg = parse("~p -> y", store)
    assert apply_rule(RuleKind.CASE_SPLIT, (pos, neg), store) == {parse("y", store)}
    # Premises are ordered: the positive branch comes first.
    assert apply_rule(RuleKind.CASE_SPLIT, (neg, pos), store) == frozenset()
    other = parse("p -> z", store)
    assert apply_rule(RuleKind.CASE_SPLIT, (other, neg), store) == frozenset()


def test_apply_rule_and_intro_and_elims():
    store = FormulaStore()
    p, q = parse("p", store), parse("q", store)
    both = parse("p & q", store)
    assert apply_rule(RuleKind.AND_INTRO, (p, q), store) == {both}
    assert apply_rule(RuleKind.AND_ELIM_L, (both,), store) == {p}
    assert apply_rule(RuleKind.AND_ELIM_R, (both,), store) == {q}
    assert apply_rule(RuleKind.AND_ELIM_L, (p,), store) == frozenset()


def test_apply_rule_or_intro_ranges_over_universe():
    store = FormulaStore()
    p, q = parse("p", store), parse("q", store)
    got = apply_rule(RuleKind.OR_INTRO, (p,), store, universe=(p, q))
    assert got == {parse("p | p", store), parse("p | q", store), parse("q | p", store)}


def test_apply_rule_lem_instances():
    store = FormulaStore()
    p, q = parse("p", store), parse("q", store)
    got = apply_rule(RuleKind.LEM_AXIOM, (), store, universe=(p, q))
    assert got == {parse("p | ~p", store), parse("q | ~q", store)}


def test_apply_rule_arity_mismatch():
    store = FormulaStore()
    p = parse("p", store)
    with pytest.raises(ArityMismatch):
        apply_rule(RuleKind.MP, (p,), store)
    with pytest.raises(ArityMismatch):
        apply_rule(RuleKind.LEM_AXIOM, (p,), store)


# --- saturate ----------------------------------------------------------------

def test_saturate_lem_implication_axiom_never_fires_mp():
    system = mk_system(
        ["(p | ~p) -> q"], [RuleKind.MP], atoms=("p", "q"),
        max_formula_size=8, max_generations=10,
    )
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["(p | ~p) -> q"]
    assert result.stats.fixed_point_reached is True
    assert set(result.theorems) == naive_closure(system)


def test_saturate_one_mp_step():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["p", "p -> q", "q"]
    assert result.stats.fixed_point_reached is True
    assert result.generations == (0, 0, 1)
    assert set(result.theorems) == naive_closure(system)


def test_saturate_lem_axiom_closes_the_implication():
    system = mk_system(
        ["(p | ~p) -> q"], [RuleKind.MP, RuleKind.LEM_AXIOM], atoms=("p", "q")
    )
    result = saturate(system)
    texts = theorem_texts(result, system.store)
    assert "p | ~p" in texts
    assert "q" in texts
    assert set(result.theorems) == naive_closure(system)


def test_saturate_generation_zero_is_sorted_canonically():
    system = mk_system(["q & p", "p"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["p", "q & p"]
    assert result.generations == (0, 0)


def test_saturate_respects_max_generations():
    # A chain of implications forces one new theorem per generation.
    system = mk_system(
        ["a", "a -> b", "b -> c", "c -> d"],
        [RuleKind.MP],
        atoms=("a", "b", "c", "d"),
        max_generations=2,
    )
    result = saturate(system)
    texts = theorem_texts(result, system.store)
    assert "b" in texts and "c" in texts and "d" not in texts
    assert result.stats.generations_run == 2
    assert result.stats.fixed_point_reached is False


def test_saturate_respects_max_theorems():
    system = mk_system(
        ["p", "q"], [RuleKind.AND_INTRO], atoms=("p", "q"), max_theorems=3
    )
    result = saturate(system)
    assert len(result.theorems) == 3
    assert result.stats.fixed_point_reached is False


def test_and_intro_budget_is_sized_by_the_theorems_not_the_bound():
    # Two generations stay far below either bound, so both runs must agree
    # exactly; sizing anything by a bound of 10**9 would exhaust memory.
    runs = []
    for bound in (20, 1_000_000_000):
        system = mk_system(
            ["p", "q"], [RuleKind.AND_INTRO], max_formula_size=bound, max_generations=2
        )
        result = saturate(system)
        runs.append((steps_digest(result, system.store), result.generations, result.stats))
    assert runs[0] == runs[1]
    assert runs[0][2] == Stats(2, False, 36, 0)


def test_saturate_dedup_counts():
    # p & p derives p by both eliminations: the second is a dedup hit.
    system = mk_system(
        ["p & p"], [RuleKind.AND_ELIM_L, RuleKind.AND_ELIM_R], atoms=("p",)
    )
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["p & p", "p"]
    assert result.stats.dedup_hits >= 1


def test_saturate_is_deterministic_same_process():
    rng = random.Random(7)
    for _ in range(10):
        system = random_system(rng)
        first = saturate(system)
        second = saturate(system)
        assert first.theorems == second.theorems
        assert first.steps == second.steps
        assert first.generations == second.generations
        assert first.stats == second.stats


def test_saturate_matches_naive_closure_on_random_systems():
    rng = random.Random(123)
    for _ in range(40):
        system = random_system(rng)
        result = saturate(system)
        assert result.stats.fixed_point_reached is True
        assert set(result.theorems) == naive_closure(system), system_document(system)


def test_saturate_matches_naive_closure_with_split_rules():
    # Locks in the semi-naive CASE_SPLIT delta logic: both premise orders
    # must be found whichever of the two implications arrives later.
    rng = random.Random(2309)
    split_rules = frozenset({RuleKind.LBI_RULE, RuleKind.CASE_SPLIT})
    for _ in range(1000):
        system = random_system(rng, extra_rules=split_rules)
        result = saturate(system)
        assert result.stats.fixed_point_reached is True
        assert set(result.theorems) == naive_closure(system), system_document(system)


def test_saturate_monotone_in_rules():
    rng = random.Random(99)
    pool = list(RuleKind)
    for _ in range(15):
        system = random_system(rng)
        smaller = set(system.rules)
        extra = {r for r in pool if rng.random() < 0.3}
        larger = system.with_rules(smaller | extra)
        assert set(saturate(system).theorems) <= set(saturate(larger).theorems)


def test_saturate_fixed_point_stable_under_doubled_generations():
    rng = random.Random(5)
    for _ in range(10):
        system = random_system(rng)
        result = saturate(system)
        assert result.stats.fixed_point_reached is True
        doubled = replace(
            system,
            bounds=replace(
                system.bounds,
                max_generations=system.bounds.max_generations * 2,
            ),
        )
        assert saturate(doubled).theorems == result.theorems


def test_saturate_theorems_entailed_by_axioms_plus_lem():
    # Soundness, checked by the oracle: LEM instances are tautologies, so
    # axioms alone must entail every theorem, split rules included.
    rng = random.Random(31)
    for _ in range(15):
        system = random_system(
            rng,
            extra_rules=frozenset(
                {RuleKind.LBI_RULE, RuleKind.CASE_SPLIT, RuleKind.LEM_AXIOM}
            ),
        )
        result = saturate(system)
        for theorem in result.theorems:
            assert entails(system.axioms, theorem, system.store).holds is True


def test_saturate_premises_precede_each_step():
    rng = random.Random(11)
    for _ in range(10):
        system = random_system(rng)
        result = saturate(system)
        assert len(set(result.theorems)) == len(result.theorems)
        for i, step in enumerate(result.steps):
            assert step.conclusion == result.theorems[i]
            assert all(p < i for p in step.premises)


def test_saturate_lem_instances_respect_size_bound():
    doc = {
        "axioms": ["(a & b) & (a | b)"],
        "rules": ["LEM_AXIOM"],
        "bounds": {"max_formula_size": 8},
    }
    system = load_system(json.dumps(doc))
    result = saturate(system)
    texts = theorem_texts(result, system.store)
    # Instances for a, b, a & b, a | b fit; the one for the whole
    # axiom would have size 16 and is filtered.
    assert texts == [
        "a | ~a",
        "b | ~b",
        "a & b & (a | b)",
        "a & b | ~(a & b)",
        "a | b | ~(a | b)",
    ]
    assert result.stats.fixed_point_reached is True
    assert set(result.theorems) == naive_closure(system)


def test_saturate_side_formulas_feed_the_universe():
    system = load_system(
        json.dumps({"axioms": [], "side_formulas": ["p"], "rules": ["LEM_AXIOM"]})
    )
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["p | ~p"]


def test_side_formula_with_undeclared_atom_rejected():
    with pytest.raises(ConfigError) as err:
        load_system(json.dumps({"atoms": ["p"], "axioms": [], "side_formulas": ["q"]}))
    assert err.value.field == "side_formulas[0]"


def test_saturate_case_split_both_premise_orders_found():
    # The rule is ordered, but saturation tries all ordered pairs, so the
    # discovery order of the two branches must not matter.
    for axioms in (["p -> y", "~p -> y"], ["~p -> y", "p -> y"]):
        system = mk_system(axioms, [RuleKind.CASE_SPLIT], atoms=("p", "y"))
        result = saturate(system)
        assert "y" in theorem_texts(result, system.store)


def test_saturate_shrinking_and_growing_rules_terminate():
    # Eliminations produce smaller formulas that could re-feed the
    # introduction rule forever; dedup against the full history stops it.
    system = mk_system(
        ["a & (a & a)"],
        [RuleKind.AND_ELIM_L, RuleKind.AND_ELIM_R, RuleKind.AND_INTRO],
        atoms=("a",),
        max_formula_size=5,
    )
    result = saturate(system)
    assert result.stats.fixed_point_reached is True
    assert set(theorem_texts(result, system.store)) == {
        "a & (a & a)", "a", "a & a", "a & a & a",
    }
    assert set(result.theorems) == naive_closure(system)


def test_saturate_case_split_partner_from_an_earlier_generation():
    # One branch is an axiom, the other comes out of MP a generation
    # later, so the new theorem must find its partner on either side.
    for axioms, late in (
        (["p -> y", "q", "q -> ~p -> y"], "~p -> y"),
        (["~p -> y", "q", "q -> p -> y"], "p -> y"),
    ):
        system = mk_system(axioms, [RuleKind.MP, RuleKind.CASE_SPLIT], atoms=("p", "q", "y"))
        store = system.store
        result = saturate(system)
        texts = theorem_texts(result, store)
        assert result.generations[texts.index(late)] == 1
        k = texts.index("y")
        assert result.steps[k].rule is RuleKind.CASE_SPLIT
        assert [texts[i] for i in result.steps[k].premises] == ["p -> y", "~p -> y"]
        assert check_proof(extract_proof(result, parse("y", store)), system) is None


def test_saturate_case_split_without_partners_derives_and_interns_nothing():
    # Neither `~a -> y` nor `b -> y` was ever interned, and `~a` was not
    # either: the partner lookups find nothing and add no node.
    system = mk_system(["a -> y", "~b -> y"], [RuleKind.CASE_SPLIT], atoms=("a", "b", "y"))
    before = len(system.store)
    result = saturate(system)
    assert theorem_texts(result, system.store) == ["a -> y", "~b -> y"]
    assert result.stats.rule_applications == 0
    assert result.stats.fixed_point_reached is True
    assert len(system.store) == before


def test_saturate_compound_pivot_case_split():
    system = mk_system(
        ["a & b -> y", "~(a & b) -> y"], [RuleKind.MP, RuleKind.CASE_SPLIT],
        atoms=("a", "b", "y"),
    )
    result = saturate(system)
    assert "y" in theorem_texts(result, system.store)
    proof = extract_proof(result, parse("y", system.store))
    assert [s.rule_name for s in proof] == ["AXIOM", "AXIOM", "CASE_SPLIT"]
    assert check_proof(proof, system) is None


def test_saturate_compound_pivot_lbi():
    system = mk_system(
        ["((a -> b) | ~(a -> b)) -> (b -> a)"],
        [RuleKind.MP, RuleKind.LBI_RULE],
        atoms=("a", "b"),
    )
    result = saturate(system)
    assert "b -> a" in theorem_texts(result, system.store)


# --- proofs -------------------------------------------------------------------

def test_extract_proof_mp_chain():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    proof = extract_proof(result, parse("q", system.store))
    assert [step.rule_name for step in proof] == ["AXIOM", "AXIOM", "MP"]
    assert proof[2].premises == (0, 1)
    assert check_proof(proof, system) is None


def test_extract_proof_not_derived():
    system = mk_system(["(p | ~p) -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    with pytest.raises(NotDerived):
        extract_proof(result, parse("q", system.store))


def test_extract_proof_axiom_goal():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    proof = extract_proof(result, parse("p", system.store))
    assert len(proof) == 1
    assert proof[0].rule is None
    assert check_proof(proof, system) is None


def test_extract_proof_is_minimal():
    system = mk_system(
        ["p", "p -> q", "r"], [RuleKind.MP], atoms=("p", "q", "r")
    )
    result = saturate(system)
    proof = extract_proof(result, parse("q", system.store))
    texts = {render(step.conclusion, system.store) for step in proof}
    assert texts == {"p", "p -> q", "q"}  # r is not an ancestor


def test_check_proof_detects_wrong_conclusion():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    proof = list(extract_proof(result, parse("q", system.store)))
    r = system.store.atom("q_bogus")
    proof[2] = ProofStep(conclusion=r, rule=RuleKind.MP, premises=(0, 1))
    failure = check_proof(proof, system)
    assert failure == InvalidStep(2, "conclusion not reproduced by the rule")


def test_check_proof_detects_forward_premise():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    proof = list(extract_proof(result, parse("q", system.store)))
    proof[2] = ProofStep(conclusion=proof[2].conclusion, rule=RuleKind.MP, premises=(0, 2))
    failure = check_proof(proof, system)
    assert failure is not None and failure.index == 2
    assert "precede" in failure.reason


def test_check_proof_detects_bogus_axiom_and_disabled_rule():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    fake_axiom = ProofStep(conclusion=parse("q", system.store), rule=None, premises=())
    failure = check_proof([fake_axiom], system)
    assert failure == InvalidStep(0, "conclusion is not an axiom")
    lem_step = ProofStep(
        conclusion=parse("p | ~p", system.store), rule=RuleKind.LEM_AXIOM, premises=()
    )
    failure = check_proof([lem_step], system)
    assert failure is not None and "not enabled" in failure.reason


def test_check_proof_accepts_lem_step_when_enabled():
    system = mk_system(
        ["(p | ~p) -> q"], [RuleKind.MP, RuleKind.LEM_AXIOM], atoms=("p", "q")
    )
    result = saturate(system)
    proof = extract_proof(result, parse("q", system.store))
    assert check_proof(proof, system) is None
    rules = {step.rule_name for step in proof}
    assert "LEM_AXIOM" in rules and "MP" in rules


def test_extracted_proofs_replay_on_random_systems():
    rng = random.Random(404)
    for _ in range(12):
        system = random_system(rng)
        result = saturate(system)
        for goal in result.theorems:
            proof = extract_proof(result, goal)
            assert check_proof(proof, system) is None


def test_index_of_matches_theorem_positions():
    system = mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms=("p", "q", "r"))
    result = saturate(system)
    for i, f in enumerate(result.theorems):
        assert result.index_of(f) == i
    assert result.index_of(parse("r -> p", system.store)) is None


def test_index_of_an_id_from_another_store_is_none():
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    other = FormulaStore()
    parse("p -> q", other)
    # Index 0 is `p` in both stores, so only the store tells them apart.
    assert parse("p", other).index == result.index_of(parse("p", system.store)) == 0
    assert result.index_of(parse("p", other)) is None


def test_extract_proof_chain_steps_before_and_after_reading_the_run_steps():
    system = mk_system(
        ["a", "a -> b", "b -> c", "c -> d", "x"], [RuleKind.MP], atoms=("a", "b", "c", "d", "x")
    )
    store = system.store
    result = saturate(system)
    expected = [
        ("a", "AXIOM", ()), ("a -> b", "AXIOM", ()), ("b -> c", "AXIOM", ()),
        ("c -> d", "AXIOM", ()), ("b", "MP", (0, 1)), ("c", "MP", (4, 2)), ("d", "MP", (5, 3)),
    ]
    goal = parse("d", store)
    before = extract_proof(result, goal)
    assert [(render(s.conclusion, store), s.rule_name, s.premises) for s in before] == expected
    result.steps  # replaces the run's (rule, premises) pairs
    assert extract_proof(result, goal) == before
    assert check_proof(before, system) is None


def test_results_compare_by_value_and_are_read_only():
    system = mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms=("p", "q", "r"))
    first, second = saturate(system), saturate(system)
    assert first == second and hash(first) == hash(second)
    # Ids of another store never equal this store's, so neither do the runs.
    assert first != saturate(mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms="pqr"))
    assert first != saturate(replace(system, bounds=Bounds(max_generations=1)))
    with pytest.raises(AttributeError):
        first.theorems = ()
    with pytest.raises(AttributeError):
        first.steps = ()
    assert [render(f, system.store) for f in first.theorems] == ["p", "p -> q", "q -> r", "q", "r"]


@pytest.mark.parametrize(
    "axioms, rules, bounds, reason",
    [
        (["p", "p -> q"], [RuleKind.MP], {}, "fixed_point"),
        (["a", "a -> b", "b -> c"], [RuleKind.MP], {"max_generations": 1}, "max_generations"),
        (["p", "q"], [RuleKind.AND_INTRO], {"max_theorems": 3}, "max_theorems"),
    ],
    ids=["fixed-point", "max-generations", "max-theorems"],
)
def test_stop_reason_names_what_ended_the_run(axioms, rules, bounds, reason):
    result = saturate(mk_system(axioms, rules, **bounds))
    assert result.stop_reason == reason
    assert result.stats.fixed_point_reached is (reason == "fixed_point")


# --- golden proof steps --------------------------------------------------------

# The S9 benchmark system; the pins below run it at sizes 7 and 9. Each pin
# is the SHA-256 of one `rendered conclusion, rule, premises` line per
# proof step, plus the exact Stats, so any drift in theorem order, proof
# indices or counters shows up across commits.
S9_DOC = {
    "atoms": ["p", "q", "r", "s"],
    "axioms": ["p", "q -> r", "(p | ~p) -> q", "~s -> r"],
    "rules": ["MP", "AND_INTRO", "AND_ELIM_L", "AND_ELIM_R", "OR_INTRO"],
}


# The pins of the plain S7 run and of its LBI_RULE closure.
S7_DIGEST = "e41570c4da16246555ad14be365fada108f4ef1e71b127c4201b4462e721baca"
S7_LBI_DIGEST = "4f02ef1bf5cc2ff757fbba79f46ff2708f525c443066070e8461c8ca864742c1"


def steps_digest(result, store):
    digest = hashlib.sha256()
    for step in result.steps:
        premises = ",".join(map(str, step.premises))
        digest.update(f"{render(step.conclusion, store)}\t{step.rule_name}\t{premises}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "extra_axioms, extra_rules, bounds, digest, stats",
    [
        ((), (), {"max_formula_size": 7}, S7_DIGEST, Stats(7, True, 15188, 5952)),
        ((), ("LBI_RULE",), {"max_formula_size": 7}, S7_LBI_DIGEST, Stats(6, True, 15189, 5953)),
        # No `x -> y`, `~x -> y` pair ever appears in S7, so CASE_SPLIT never
        # fires and the steps equal the base run's; the next two pins add
        # `s -> r`, which gives CASE_SPLIT one step and LEM_AXIOM six.
        ((), ("CASE_SPLIT",), {"max_formula_size": 7}, S7_DIGEST, Stats(7, True, 15188, 5952)),
        (("s -> r",), ("CASE_SPLIT",), {"max_formula_size": 7},
         "c588cce960fff830847d8cbbbbf93284db041d13663dde75e8669072e4217902",
         Stats(6, True, 15929, 6244)),
        (("s -> r",), ("LEM_AXIOM",), {"max_formula_size": 7},
         "af533a2f954e38ae35fd1889b8cada7ddd694500fd189635b54a37ee8cae57d5",
         Stats(6, True, 16042, 6280)),
        # Cut after 3,878 of generation 3's 6,651 theorems.
        ((), (), {"max_formula_size": 9, "max_theorems": 5000},
         "cb298245b51b64c724d5bb9357e5a3420362de78f089ce43fb7da743bbc43147",
         Stats(3, False, 5522, 971)),
    ],
    ids=["s7", "s7-lbi", "s7-case-split", "s7-two-branch-case-split", "s7-two-branch-lem",
         "s9-truncated"],
)
def test_saturate_proof_steps_are_pinned(extra_axioms, extra_rules, bounds, digest, stats):
    doc = {
        **S9_DOC,
        "axioms": S9_DOC["axioms"] + list(extra_axioms),
        "rules": S9_DOC["rules"] + list(extra_rules),
        "bounds": bounds,
    }
    system = load_system(json.dumps(doc))
    result = saturate(system)
    assert steps_digest(result, system.store) == digest
    assert result.stats == stats


def test_gap_report_builds_no_steps_and_reads_the_pinned_ones_later():
    system = load_system(json.dumps({**S9_DOC, "bounds": {"max_formula_size": 7}}))
    report = gap_report(system, RuleKind.LBI_RULE)
    for run in (report.enumerated, report.closure):
        assert "theorems" not in vars(run) and "steps" not in vars(run)
    assert steps_digest(report.enumerated, system.store) == S7_DIGEST
    assert steps_digest(report.closure, system.store) == S7_LBI_DIGEST
    assert report.enumerated.stats == Stats(7, True, 15188, 5952)


# --- the cyclic collector ------------------------------------------------------

@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_saturate_restores_the_collector_state(collector_state, monkeypatch, enabled):
    seen = []
    run_mp = engine._Saturation.run_mp

    def spy(self, delta):
        seen.append(gc.isenabled())
        run_mp(self, delta)

    monkeypatch.setattr(engine._Saturation, "run_mp", spy)
    gc.enable() if enabled else gc.disable()
    saturate(mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q")))
    assert seen and not any(seen)  # paused while saturating
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_saturate_restores_the_collector_state_when_a_run_raises(
    collector_state, monkeypatch, enabled
):
    def fail(self, delta):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine._Saturation, "run_mp", fail)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(RuntimeError, match="boom"):
        saturate(mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q")))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(
    "extra_axioms, close_with",
    [((), RuleKind.LBI_RULE), (("s -> r",), RuleKind.LEM_AXIOM),
     (("s -> r",), RuleKind.CASE_SPLIT)],
    ids=["s7-lbi", "s7-two-branch-lem", "s7-two-branch-case-split"],
)
def test_saturation_and_gap_reports_leave_no_cyclic_garbage(
    collector_state, extra_axioms, close_with
):
    # With the collector off, anything a run leaves in a reference cycle
    # would be found by the explicit collections below.
    doc = {**S9_DOC, "axioms": S9_DOC["axioms"] + list(extra_axioms),
           "bounds": {"max_formula_size": 7}}
    base = load_system(json.dumps(doc))
    closing = base.with_rules(base.rules | {close_with})
    gc.disable()
    gc.collect()
    results = [saturate(base)]
    assert gc.collect() == 0
    results.append(saturate(closing))
    assert gc.collect() == 0
    results.append(gap_report(base, close_with))
    assert gc.collect() == 0
    assert results[2].closure.theorems == results[1].theorems
