from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random

import pytest

from lemgap import engine, formula
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
from lemgap.formula import FormulaId, FormulaStore, parse, render, size
from lemgap.gap import gap_report
from lemgap.oracle import entails

from cli_corpus import S9
from support import naive_closure, random_formula, random_system


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


def test_load_system_infers_atoms_without_a_second_closure(monkeypatch):
    # Omitted atoms are read off the document's own store, so they include
    # an atom only a side formula uses, and only the system's own check
    # walks the formulas' subformula closure.
    calls = []
    atom_names = engine._atom_names
    monkeypatch.setattr(
        engine, "_atom_names", lambda *args: calls.append(args) or atom_names(*args)
    )
    system = load_system(json.dumps({"axioms": ["zeta -> b", "a"], "side_formulas": ["c | ~a"]}))
    assert system.atoms == ("a", "b", "c", "zeta")
    assert len(calls) == 1


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


def test_load_system_rules_must_be_a_list():
    with pytest.raises(ConfigError) as err:
        load_system('{"axioms": [], "rules": "MP"}')
    assert (err.value.field, err.value.reason) == ("rules", "must be a list of rule names")


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
    # `Bounds` is the one bound validator, so values no document could
    # hold are rejected when built in code too.
    for name, value in [
        ("max_theorems", 2.5), ("max_formula_size", 9.0),
        ("max_generations", True), ("max_theorems", "3"),
    ]:
        with pytest.raises(ConfigError) as err:
            Bounds(**{name: value})
        assert (err.value.field, err.value.reason) == (f"bounds.{name}", "must be an integer")


def test_system_checks_its_rules_and_bounds():
    # As `Bounds` checks its fields, a system checks that its rules are a
    # frozenset of RuleKind members (a set would make it unhashable, and a
    # rule name would enable nothing) and that its bounds are a `Bounds`.
    system = load_system('{"axioms": ["p", "p -> q"]}')
    for rules in (frozenset({"MP"}), {RuleKind.MP}, [RuleKind.MP], None):
        with pytest.raises(ConfigError) as err:
            system._replace(rules=rules)
        assert (err.value.field, err.value.reason) == (
            "rules", "must be a frozenset of RuleKind members"
        )
    for bounds in (None, {"max_formula_size": 12}, (12, 50, 100_000)):
        with pytest.raises(ConfigError) as err:
            system._replace(bounds=bounds)
        assert (err.value.field, err.value.reason) == ("bounds", "must be a Bounds")
    assert len(saturate(system._replace(rules=frozenset({RuleKind.MP}))).theorems) == 3


def test_system_checks_its_store_and_atoms():
    # A store that is not a FormulaStore would fail deep inside the id
    # check, and a str would be read as one atom per character.
    system = load_system('{"axioms": ["p", "p -> q"]}')
    with pytest.raises(ConfigError) as err:
        AxiomaticSystem(None, (), (), frozenset())
    assert (err.value.field, err.value.reason) == ("store", "must be a FormulaStore")
    with pytest.raises(ConfigError) as err:
        system._replace(store=None)
    assert (err.value.field, err.value.reason) == ("store", "must be a FormulaStore")
    with pytest.raises(ConfigError) as err:
        system._replace(atoms="pq")
    assert (err.value.field, err.value.reason) == (
        "atoms", "must be a tuple of atom names, not a str"
    )
    for atoms in (("p", 1), ["p", None]):
        with pytest.raises(ConfigError) as err:
            system._replace(atoms=atoms)
        assert (err.value.field, err.value.reason) == ("atoms", "must be a tuple of atom names")
    assert system._replace(atoms=["p", "q"]).atoms == ("p", "q")
    assert system._replace(atoms=iter(["q", "p"])).atoms == ("q", "p")
    # A field that is not iterable is named, not a TypeError from `tuple`.
    store, formula_fields = system.store, ("axioms", "side_formulas")
    reasons = {"atoms": "must be a tuple of atom names"}
    reasons.update(dict.fromkeys(formula_fields, "must be a tuple of formula ids"))
    for field_name, reason in reasons.items():
        for value in (None, 5):
            with pytest.raises(ConfigError) as err:
                system._replace(**{field_name: value})
            assert (err.value.field, err.value.reason) == (field_name, reason)
    for args, field_name in (
        ((store, None, (), frozenset()), "atoms"),
        ((store, ("p", "q"), None, frozenset()), "axioms"),
        ((store, ("p", "q"), (), frozenset(), None), "side_formulas"),
    ):
        with pytest.raises(ConfigError) as err:
            AxiomaticSystem(*args)
        assert err.value.field == field_name
    # An iterable of non-ids still trips the id predicate.
    for field_name in formula_fields:
        for value in ([None], iter(["p"]), [FormulaStore().atom("p")]):
            with pytest.raises(AssertionError):
                system._replace(**{field_name: value})
    assert system._replace(axioms=iter(system.axioms)) == system


def test_a_system_keeps_the_formulas_it_checked():
    # The system reads its axioms' indices without checking them again, so
    # it keeps them as a tuple: a list it was given can change later.
    store = FormulaStore()
    axioms = [parse("p", store)]
    system = AxiomaticSystem(store, ("p",), axioms, frozenset({RuleKind.MP}))
    axioms.append(parse("q & r", FormulaStore()))
    assert system.axioms == (parse("p", store),)
    assert theorem_texts(saturate(system), store) == ["p"]
    assert system.universe() == (parse("p", store),)


def test_system_document_of_every_accepted_bounds_loads_back():
    system = load_system('{"axioms": ["p"]}')
    for name in ("max_formula_size", "max_generations", "max_theorems"):
        for value in [1, 7, 2**40, 0, -3, 9.0, 2.5, True, False, "3", None]:
            try:
                bounds = Bounds(**{name: value})
            except ConfigError:
                continue
            doc = system_document(system._replace(bounds=bounds))
            assert load_system(json.dumps(doc)).bounds == bounds


@pytest.mark.parametrize("field_name", ["axioms", "side_formulas"])
def test_load_system_formula_byte_limit(field_name):
    # The limit counts UTF-8 bytes: one two-byte space tips it over.
    at_limit = "p" + " " * (engine.MAX_FORMULA_BYTES - 1)
    over_limit = "p" + "\u00a0" + " " * (engine.MAX_FORMULA_BYTES - 2)
    system = load_system(json.dumps({field_name: ["q", at_limit]}))
    assert len(getattr(system, field_name)) == 2
    with pytest.raises(ConfigError) as err:
        load_system(json.dumps({field_name: ["q", over_limit]}))
    assert err.value.field == f"{field_name}[1]"
    assert err.value.reason == "formula longer than 16384 bytes"


def test_load_system_undeclared_atom():
    with pytest.raises(ConfigError) as err:
        load_system('{"atoms": ["p"], "axioms": ["p -> q"]}')
    assert err.value.field == "axioms[0]"


def test_load_system_names_the_first_formula_with_an_undeclared_atom():
    # `q` sorts before `r`, but the first axiom using an undeclared atom
    # uses `r`, and the error names that axiom and its first such atom.
    with pytest.raises(ConfigError) as err:
        load_system('{"atoms": ["p"], "axioms": ["p", "p & (s | r)", "q"]}')
    assert (err.value.field, err.value.reason) == ("axioms[1]", "uses undeclared atom 'r'")


@pytest.mark.parametrize(
    "atoms, field_name, reason",
    [
        ('"p"', "atoms", "must be a list of atom names"),
        ('["p", 1]', "atoms", "must be a list of atom names"),
        ('["p", "1x"]', "atoms[1]", "invalid atom name '1x'"),
        ('["p", "q", "p"]', "atoms", "duplicate atom names"),
    ],
)
def test_load_system_rejects_bad_atom_lists(atoms, field_name, reason):
    with pytest.raises(ConfigError) as err:
        load_system(f'{{"atoms": {atoms}, "axioms": ["p"]}}')
    assert (err.value.field, err.value.reason) == (field_name, reason)


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


def assert_hash_consed(store):
    """Each kind's table maps exactly the nodes of that kind back to
    themselves, a binary kind's by left operand, then right, in rows none
    of which is empty; no two nodes share their kind and children,
    children precede parents and every size is its children's plus one."""
    kinds, lefts, rights, sizes = store._kinds, store._lefts, store._rights, store._sizes
    for kind, table in enumerate(store._tables):
        held = list(table.values())
        if kind not in (formula.ATOM, formula.NOT):
            assert all(len(row) for row in held), "an empty row"
            held = [i for row in held for i in row.values()]
        assert sorted(held) == [i for i, k in enumerate(kinds) if k == kind]
    shapes = [shape for shape in zip(kinds, lefts, rights) if shape[0] != formula.ATOM]
    assert len(set(shapes)) == len(shapes)
    for i, (kind, left, right) in enumerate(zip(kinds, lefts, rights)):
        if kind == formula.NOT:
            assert store._tables[kind][left] == i and left < i
            assert sizes[i] == 1 + sizes[left]
        elif kind != formula.ATOM:
            assert store._tables[kind][left][right] == i and max(left, right) < i
            assert sizes[i] == 1 + sizes[left] + sizes[right]


@pytest.mark.parametrize(
    "seed, count, extra_rules",
    [(123, 40, frozenset()), (2309, 200, frozenset({RuleKind.LBI_RULE, RuleKind.CASE_SPLIT}))],
    ids=["base-rules", "split-rules"],
)
def test_saturate_keeps_the_store_hash_consed(seed, count, extra_rules):
    # AND_INTRO and OR_INTRO intern in place. A second run on the same
    # store finds every conclusion in the tables, as the closure run of a
    # gap report does: it adds no node and returns the same result.
    rng = random.Random(seed)
    for _ in range(count):
        system = random_system(rng, extra_rules=extra_rules)
        first = saturate(system)
        assert_hash_consed(system.store)
        nodes = len(system.store)
        assert saturate(system) == first
        assert len(system.store) == nodes


def test_and_intro_and_or_intro_take_every_branch_of_their_joins():
    # Round 1, over the atoms: AND_INTRO's `p & p` hits a theorem and
    # `p & q`, interned before the run, a node that is no theorem yet;
    # `q & p` and `q & q` are new to the store. OR_INTRO's `p | p` hits a
    # theorem twice, `p | q` is new and `q | p` hits the node interned
    # before the run; from q, `q | p` and `p | q` hit this round's
    # candidates, and `q | q` is new, then hit by its mirror. Dedup hits:
    # 1 + 2 + 2 + 1. Round 2 has nothing that fits.
    system = mk_system(["p", "q", "p & p", "p | p"], [RuleKind.AND_INTRO, RuleKind.OR_INTRO],
                       atoms=("p", "q"), max_formula_size=3)
    store = system.store
    interned = [parse("p & q", store), parse("q | p", store)]
    result = saturate(system)
    assert theorem_texts(result, store) == [
        "p", "q", "p & p", "p | p", "p & q", "p | q", "q & p", "q & q", "q | p", "q | q"
    ]
    assert [result.index_of(f) for f in interned] == [4, 8]
    assert result.stats == Stats(2, True, 14, 6)
    assert len(store) == 10
    assert_hash_consed(store)


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
        doubled = system._replace(
            bounds=system.bounds._replace(
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


def test_lem_seeding_interns_only_the_instances_that_fit():
    # S9's axioms at size 7. The universe, sorted by size, is `p`, `q`,
    # `r`, `s`, `~p`, `~s`, then `q -> r` and three larger formulas. An
    # instance `x | ~x` has size 2 + 2 * size(x), so only the six members
    # of size at most 2 have one that fits, and seeding stops at `q -> r`
    # without interning anything for it or the members after it. The
    # store's 10 nodes gain 9: the five instances other than the axioms'
    # `p | ~p`, and `~q`, `~r`, `~~p` and `~~s`. Interning an instance and
    # its `~x` for every member would make 27.
    doc = {**S9, "rules": ["MP", "LEM_AXIOM"], "bounds": {"max_formula_size": 7}}
    system = load_system(json.dumps(doc))
    assert len(system.store) == 10
    result = saturate(system)
    assert theorem_texts(result, system.store) == [
        "p", "q -> r", "p | ~p", "q | ~q", "r | ~r", "s | ~s", "~s -> r",
        "(p | ~p) -> q", "~p | ~~p", "~s | ~~s", "q", "r",
    ]
    assert result.stats == Stats(3, True, 3, 0)
    assert len(system.store) == 19


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
    # The steps are read once, so a one-shot iterable is checked like a list.
    for steps in ([fake_axiom], (step for step in [fake_axiom]), iter([fake_axiom])):
        assert check_proof(steps, system) == InvalidStep(0, "conclusion is not an axiom")
    # Each step is unpacked once, so a step may itself be a one-shot iterator.
    p = parse("p", system.store)
    assert check_proof([iter([p, None, ()])], system) is None
    assert check_proof([iter(fake_axiom)], system) == InvalidStep(0, "conclusion is not an axiom")
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


def test_check_proof_rejects_misshapen_steps():
    system = mk_system(["p", "p -> q"], [RuleKind.MP, RuleKind.LEM_AXIOM], atoms=("p", "q"))
    store = system.store
    p, q, lem = (parse(t, store) for t in ("p", "q", "p | ~p"))
    axiom = ProofStep(p, None, ())
    cases = [
        (ProofStep(p, None, (0,)), "axiom step with premises"),
        (ProofStep(lem, RuleKind.LEM_AXIOM, (0,)), "LEM_AXIOM step with premises"),
        (ProofStep(q, RuleKind.LEM_AXIOM, ()),
         "conclusion is not a LEM instance over the universe"),
        (ProofStep(q, RuleKind.MP, (0,)), "wrong premise count for MP"),
    ]
    for step, reason in cases:
        assert check_proof([axiom, step], system) == InvalidStep(1, reason)


def test_check_proof_answers_malformed_rules_and_premises():
    # A step must unpack into (conclusion, rule, premises), its rule must be
    # None or a RuleKind, and its premises a tuple of ints (a bool is not
    # one): each step below is answered, none crashes or passes.
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    p, imp, q = (parse(t, system.store) for t in ("p", "p -> q", "q"))
    axioms = [ProofStep(p, None, ()), ProofStep(imp, None, ())]
    steps = [
        (ProofStep(q, "MP", (0, 1)), "rule is neither None nor a RuleKind"),
        (ProofStep(q, RuleKind.MP, (0, "1")), "premises are not a tuple of ints"),
        (ProofStep(q, RuleKind.MP, (0, 1.0)), "premises are not a tuple of ints"),
        (ProofStep(q, RuleKind.MP, 5), "premises are not a tuple of ints"),
        (ProofStep(q, RuleKind.MP, (0, True)), "premises are not a tuple of ints"),
        ((q, RuleKind.MP), "step is not a (conclusion, rule, premises) triple"),
        ((q, RuleKind.MP, (0, 1), 1), "step is not a (conclusion, rule, premises) triple"),
        (None, "step is not a (conclusion, rule, premises) triple"),
    ]
    for step, reason in steps:
        assert check_proof([*axioms, step], system) == InvalidStep(2, reason)
    assert check_proof([*axioms, ProofStep(q, RuleKind.MP, (0, 1))], system) is None


def test_check_proof_answers_the_first_faulty_step():
    # One pass checks each step in order, so a fault at step 0 is answered
    # before a malformed step or a foreign id after it is read.
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    q = parse("q", system.store)
    bad_premise = ProofStep(q, RuleKind.MP, (0, 1))
    first = InvalidStep(0, "premise 0 does not precede the step")
    foreign = ProofStep(parse("p", FormulaStore()), None, ())
    for later in (None, (q, RuleKind.MP), foreign):
        assert check_proof([bad_premise, later], system) == first
    # A foreign id is still refused by the id predicate when it is read.
    with pytest.raises(AssertionError):
        check_proof([foreign, bad_premise], system)


# (rule, premises, universe, conclusions), as formula texts.
_NO_MATCHER_CASES = [
    (RuleKind.MP, ["p", "p -> q"], [], ["q"]),
    (RuleKind.MP, ["q", "p -> q"], [], []),
    (RuleKind.MP, ["p", "q"], [], []),
    (RuleKind.AND_INTRO, ["p", "q"], [], ["p & q"]),
    (RuleKind.AND_ELIM_L, ["p & q"], [], ["p"]),
    (RuleKind.AND_ELIM_L, ["p"], [], []),
    (RuleKind.AND_ELIM_R, ["p & q"], [], ["q"]),
    (RuleKind.AND_ELIM_R, ["p | q"], [], []),
    (RuleKind.OR_INTRO, ["p"], ["p", "q"], ["p | p", "p | q", "q | p"]),
    (RuleKind.LEM_AXIOM, [], ["p", "q"], ["p | ~p", "q | ~q"]),
    (RuleKind.LBI_RULE, ["(p | ~p) -> q"], [], ["q"]),
    (RuleKind.LBI_RULE, ["(~p | p) -> q"], [], ["q"]),
    (RuleKind.LBI_RULE, ["(~p | ~~p) -> q"], [], ["q"]),
    (RuleKind.LBI_RULE, ["(p | ~q) -> q"], [], []),
    (RuleKind.LBI_RULE, ["(~r | s) -> q"], [], []),
    (RuleKind.LBI_RULE, ["(r | ~s) -> q"], [], []),
    (RuleKind.LBI_RULE, ["p -> q"], [], []),
    (RuleKind.LBI_RULE, ["p | ~p"], [], []),
    (RuleKind.CASE_SPLIT, ["p -> y", "~p -> y"], [], ["y"]),
    (RuleKind.CASE_SPLIT, ["~p -> y", "p -> y"], [], []),
    (RuleKind.CASE_SPLIT, ["p -> z", "~p -> y"], [], []),
    (RuleKind.CASE_SPLIT, ["q -> y", "~p -> y"], [], []),
]


def _refuse(*args, **kwargs):
    raise AssertionError("saturation's matchers and node objects are not for replay")


def test_apply_rule_and_check_proof_share_no_matcher_with_saturation(monkeypatch):
    # apply_rule and check_proof define every rule on the store's columns:
    # with node objects and the matchers saturation and lbi_accepted use
    # patched to raise, both still answer.
    store = FormulaStore()
    cases = [
        (rule, [parse(t, store) for t in premises], [parse(t, store) for t in universe],
         {parse(t, store) for t in expected})
        for rule, premises, universe, expected in _NO_MATCHER_CASES
    ]
    lbi = mk_system(
        ["(p | ~p) -> q", "(~q | q) -> r", "q -> r -> s", "(p | ~r) -> r"],
        [RuleKind.MP, RuleKind.LBI_RULE], atoms=("p", "q", "r", "s"),
    )
    split = mk_system(
        ["a -> y", "~a -> y", "y -> z"], [RuleKind.MP, RuleKind.CASE_SPLIT], atoms=("a", "y", "z")
    )
    lbi_proof = extract_proof(saturate(lbi), parse("s", lbi.store))
    split_proof = extract_proof(saturate(split), parse("z", split.store))
    assert [s.rule_name for s in lbi_proof].count("LBI_RULE") == 2
    assert "CASE_SPLIT" in [s.rule_name for s in split_proof]
    # A premise of the wrong shape, then the right premise and a wrong conclusion.
    forged = [
        [ProofStep(parse(premise, lbi.store), None, ()),
         ProofStep(parse(conclusion, lbi.store), RuleKind.LBI_RULE, (0,))]
        for premise, conclusion in (("(p | ~r) -> r", "r"), ("(p | ~p) -> q", "p"))
    ]

    monkeypatch.setattr(FormulaStore, "node", _refuse)
    for module in (formula, engine):
        for name in ("match_lbi_shape", "_lbi_shapes", "_case_splits"):
            monkeypatch.setattr(module, name, _refuse, raising=False)
    for rule, premises, universe, expected in cases:
        assert apply_rule(rule, premises, store, universe) == expected, (rule, premises)
    assert check_proof(lbi_proof, lbi) is None
    assert check_proof(split_proof, split) is None
    for proof in forged:
        assert check_proof(proof, lbi) == InvalidStep(1, "conclusion not reproduced by the rule")


def test_check_proof_builds_no_id_on_an_mp_chain(monkeypatch):
    # The replay reads store indices, so it builds no id, not even per step.
    axioms = ["a0"] + [f"a{i} -> a{i + 1}" for i in range(200)]
    system = mk_system(axioms, [RuleKind.MP], max_generations=201)
    proof = extract_proof(saturate(system), parse("a200", system.store))
    assert [s.rule_name for s in proof].count("MP") == 200
    calls = []
    ids, one = FormulaStore._ids, FormulaStore._id

    def counted_ids(self, indices):
        calls.append("_ids")
        return ids(self, indices)

    def counted_id(self, i):
        calls.append("_id")
        return one(self, i)

    monkeypatch.setattr(FormulaStore, "_ids", counted_ids)
    monkeypatch.setattr(FormulaStore, "_id", counted_id)
    assert check_proof(proof, system) is None
    assert calls == []


def test_each_id_is_checked_once_from_loading_to_replay(monkeypatch):
    # On an n-link MP chain, the ids checked, each by `FormulaStore._index`,
    # are the n + 1 axioms, once, when the system is built, and the 2n + 1
    # conclusions of the proof `check_proof` is given: 3n + 2. The universe
    # and the axioms are read from the system, whose ids were checked when
    # it was built.
    checked = []
    index = FormulaStore._index

    def counted_one(store, f):
        checked.append(1)
        return index(store, f)

    monkeypatch.setattr(FormulaStore, "_index", counted_one)
    n = 50
    axioms = ["a0"] + [f"a{i} -> a{i + 1}" for i in range(n)]
    system = load_system(json.dumps({"axioms": axioms, "bounds": {"max_generations": n}}))
    proof = extract_proof(saturate(system), parse(f"a{n}", system.store))
    assert check_proof(proof, system) is None
    assert sum(checked) == 3 * n + 2


def test_check_proof_interns_nothing():
    # A step's conclusion is already in the store, so the replay looks the
    # OR_INTRO candidates and the LEM instances up instead of interning them.
    system = mk_system(
        ["p", "q -> r"],
        [RuleKind.MP, RuleKind.AND_INTRO, RuleKind.OR_INTRO, RuleKind.LEM_AXIOM],
        max_formula_size=7,
    )
    store = system.store
    result = saturate(system)
    proofs = [extract_proof(result, goal) for goal in result.theorems]
    ranged = {"AND_INTRO", "OR_INTRO", "LEM_AXIOM"}
    replayed = {s.rule_name for proof in proofs for s in proof} & ranged
    assert replayed == ranged
    nodes = len(store)
    for proof in proofs:
        assert check_proof(proof, system) is None
    assert len(store) == nodes


def test_check_proof_rejects_forged_ranging_steps_without_interning():
    # On a system never saturated, the universe's disjunctions and most of
    # its negations were never interned: a replay must not add them.
    system = mk_system(
        ["p", "q -> r"], [RuleKind.OR_INTRO, RuleKind.LEM_AXIOM], atoms=("p", "q", "r")
    )
    system = system._replace(side_formulas=(parse("r | ~r", system.store),))
    store = system.store
    p, axiom, lem = (parse(t, store) for t in ("p", "q -> r", "r | ~r"))
    disjunction = store.disj(p, axiom)
    nodes = len(store)
    assert check_proof(
        [ProofStep(p, None, ()), ProofStep(axiom, RuleKind.OR_INTRO, (0,))], system
    ) == InvalidStep(1, "conclusion not reproduced by the rule")
    assert check_proof([ProofStep(axiom, RuleKind.LEM_AXIOM, ())], system) == InvalidStep(
        0, "conclusion is not a LEM instance over the universe"
    )
    assert check_proof(
        [ProofStep(p, None, ()), ProofStep(disjunction, RuleKind.OR_INTRO, (0,))], system
    ) is None
    assert check_proof([ProofStep(lem, RuleKind.LEM_AXIOM, ())], system) is None
    assert len(store) == nodes


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


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
def test_index_of_a_forged_id_is_none(index):
    # Store index 1 is the theorem `q`, and True == 1.0 == 1, but neither is
    # an `int` index, so neither id is the store's.
    system = mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q"))
    result = saturate(system)
    tag = system.store._tag
    assert render(FormulaId(1, tag), system.store) == "q"
    assert result.index_of(FormulaId(1, tag)) is not None
    forged = FormulaId(index, tag)
    assert result.index_of(forged) is None
    with pytest.raises(NotDerived):
        extract_proof(result, forged)


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
    result.steps  # builds a view; the run's packed steps stay as they were
    assert extract_proof(result, goal) == before
    assert check_proof(before, system) is None


def test_proof_steps_are_named_tuples():
    # Attribute access and `rule_name` as before; equal to a plain tuple.
    store = FormulaStore()
    p = store.atom("p")
    step = ProofStep(p, RuleKind.MP, (0, 1))
    assert (step.conclusion, step.rule, step.premises, step.rule_name) == (
        p, RuleKind.MP, (0, 1), "MP"
    )
    assert step == (p, RuleKind.MP, (0, 1)) and hash(step) == hash((p, RuleKind.MP, (0, 1)))
    assert step._replace(premises=(1, 0)) == ProofStep(p, RuleKind.MP, (1, 0))
    with pytest.raises(AttributeError):
        step.rule = None
    assert repr(step) == (
        f"ProofStep(conclusion=FormulaId(index=0, store_tag={p.store_tag}), "
        "rule=<RuleKind.MP: 'MP'>, premises=(0, 1))"
    )
    assert ProofStep(p, None, ()).rule_name == "AXIOM"
    system = mk_system(["a", "a -> b"], [RuleKind.MP])
    first, second = saturate(system), saturate(system)
    assert first.steps == second.steps
    proof = extract_proof(first, parse("b", system.store))
    assert proof == first.steps and {type(step) for step in proof} == {ProofStep}


def test_results_compare_by_value_and_are_read_only():
    system = mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms=("p", "q", "r"))
    first, second = saturate(system), saturate(system)
    assert first == second and hash(first) == hash(second)
    # Ids of another store never equal this store's, so neither do the runs.
    assert first != saturate(mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms="pqr"))
    assert first != saturate(system._replace(bounds=Bounds(max_generations=1)))
    with pytest.raises(AttributeError):
        first.theorems = ()
    with pytest.raises(AttributeError):
        first.steps = ()
    assert [render(f, system.store) for f in first.theorems] == ["p", "p -> q", "q -> r", "q", "r"]


def test_results_compare_by_their_columns_without_building_views():
    system = mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms=("p", "q", "r"))
    first, second = saturate(system), saturate(system)
    assert first == second and hash(first) == hash(second)
    for run in (first, second):
        assert "theorems" not in vars(run) and "steps" not in vars(run)
    # The same table in another store is another run; two empty runs are
    # equal, whatever their stores.
    assert first != saturate(mk_system(["p", "p -> q", "q -> r"], [RuleKind.MP], atoms="pqr"))
    empty = [saturate(mk_system([], [RuleKind.MP], atoms="p")) for _ in range(2)]
    assert empty[0]._store is not empty[1]._store
    assert empty[0] == empty[1] and hash(empty[0]) == hash(empty[1])
    assert first != first._replace(_packed=[0] * len(first._packed))
    assert first != first._replace(generations=(0,) * len(first.generations))


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


# --- the step table -----------------------------------------------------------

@pytest.mark.parametrize("rule", [None, *RuleKind], ids=lambda r: "AXIOM" if r is None else r.value)
def test_packed_steps_round_trip(rule):
    # Positions 0 and 2**32 - 1 are the bounds of a premise's 32 bits; a
    # two-premise rule also gets equal premises, AND_INTRO's `i & i`.
    arity = 0 if rule is None else engine.RULE_ARITY[rule]
    for premises in itertools.product((0, 1, 2**32 - 1), repeat=arity):
        assert engine._unpack(engine._pack(rule, *premises)) == (rule, premises)


def test_extract_proof_on_s7_reads_the_pinned_steps():
    # `steps_digest` pins the run's steps below; every step of an extracted
    # proof must be the run's step for the same theorem, renumbered.
    system = load_system(json.dumps({**S9, "bounds": {"max_formula_size": 7}}))
    result = saturate(system)
    assert steps_digest(result, system.store) == S7_DIGEST
    position = {f: i for i, f in enumerate(result.theorems)}
    for goal in result.theorems[::97]:
        proof = extract_proof(result, goal)
        for step in proof:
            run_step = result.steps[position[step.conclusion]]
            assert step.rule is run_step.rule
            assert [position[proof[p].conclusion] for p in step.premises] == list(run_step.premises)
        assert check_proof(proof, system) is None


# --- golden proof steps --------------------------------------------------------

# The pins below run `S9`, the S9 benchmark system, at sizes 7 and 9. Each
# pin is the SHA-256 of one `rendered conclusion, rule, premises` line per
# proof step, plus the exact Stats, so any drift in theorem order, proof
# indices or counters shows up across commits. The first two are the plain
# S7 run and its LBI_RULE closure.
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
        **S9,
        "axioms": S9["axioms"] + list(extra_axioms),
        "rules": S9["rules"] + list(extra_rules),
        "bounds": bounds,
    }
    system = load_system(json.dumps(doc))
    result = saturate(system)
    assert steps_digest(result, system.store) == digest
    assert result.stats == stats


def test_gap_report_builds_no_steps_and_reads_the_pinned_ones_later():
    system = load_system(json.dumps({**S9, "bounds": {"max_formula_size": 7}}))
    report = gap_report(system, RuleKind.LBI_RULE)
    for run in (report.enumerated, report.closure):
        assert "theorems" not in vars(run) and "steps" not in vars(run)
    assert steps_digest(report.enumerated, system.store) == S7_DIGEST
    assert steps_digest(report.closure, system.store) == S7_LBI_DIGEST
    assert report.enumerated.stats == Stats(7, True, 15188, 5952)


# Saturation counts some premises without trying them: an AND_INTRO
# conjunction under AND_ELIM (its conjuncts are theorems already) and an
# OR_INTRO premise too large for every universe member. These pins fix
# `Stats` and the steps where a conjunction must still be opened.
_ELIMS = ("AND_INTRO", "AND_ELIM_L", "AND_ELIM_R")


@pytest.mark.parametrize(
    "axioms, rules, digest, stats",
    [
        (["p & (q -> r)", "q"], ("MP", *_ELIMS, "OR_INTRO"),
         "20545e17bf8071cb9af710ebccbc8ec16b7e9fb1a507e179491127e54f671ecb",
         Stats(6, True, 8941, 3725)),
        (["q", "q -> (r & s)"], ("MP", *_ELIMS),
         "1aa4370e3af318b846fb7f5515d008d44f20b0c7af5fde3d1fd7d463dae506bf",
         Stats(6, True, 1423, 947)),
        (["(p & q) & r"], _ELIMS,
         "e6f3e68e06d8420587cc5e8d0701f93d567b5a185f02d43912f0fe97286d0f2a",
         Stats(6, True, 1404, 934)),
        (["(p & q) & r"], ("AND_INTRO", "AND_ELIM_R"),
         "126d2a8e928de79cf384c55908c130b2a2d3a2a561141e9e0b246bc02675ddfc",
         Stats(5, True, 21, 10)),
        (["p", "q", "p -> (p & q)"], ("MP", *_ELIMS),
         "f6576b44ad6992146b9f7fa7072a1c1a332545a669d2bb66a2c19027e51663ce",
         Stats(4, True, 313, 209)),
    ],
    ids=["axiom-conjunction", "mp-conjunction", "nested-conjunction",
         "nested-conjunction-right-only", "mp-and-and-intro-same-round"],
)
def test_bulk_counted_premises_are_pinned(axioms, rules, digest, stats):
    system = mk_system(axioms, [RuleKind(r) for r in rules], max_formula_size=7)
    result = saturate(system)
    assert steps_digest(result, system.store) == digest
    assert result.stats == stats


def test_a_conjunction_mp_and_and_intro_both_derive_keeps_the_mp_step():
    system = mk_system(["p", "q", "p -> (p & q)"], [RuleKind.MP, RuleKind.AND_INTRO],
                       max_formula_size=5)
    result = saturate(system)
    position = result.index_of(parse("p & q", system.store))
    assert (result.steps[position].rule, result.generations[position]) == (RuleKind.MP, 1)


def _bulk_counting_system(rng):
    atoms = ("a", "b", "c")[: rng.randint(1, 3)]
    store = FormulaStore()
    def formula(size):
        return random_formula(rng, atoms, size, store)

    axioms = [formula(rng.randint(1, 5)) for _ in range(rng.randint(1, 2))]
    # Conjunctions that AND_INTRO does not derive: an axiom, and one that
    # MP concludes.
    if rng.random() < 0.5:
        axioms.append(store.conj(formula(rng.randint(1, 3)), formula(rng.randint(1, 2))))
    if rng.random() < 0.4:
        antecedent = formula(1)
        axioms += [antecedent, store.impl(antecedent, store.conj(formula(1), formula(2)))]
    pool = (RuleKind.MP, RuleKind.AND_INTRO, RuleKind.AND_ELIM_L, RuleKind.AND_ELIM_R,
            RuleKind.OR_INTRO)
    rules = frozenset(r for r in pool if rng.random() < 0.6)
    max_size = max(rng.randint(4, 7), *(size(ax, store) for ax in axioms))
    max_theorems = rng.randint(4, 40) if rng.random() < 0.3 else 100_000
    return AxiomaticSystem(
        store=store, atoms=atoms, axioms=tuple(dict.fromkeys(axioms)), rules=rules,
        bounds=Bounds(max_formula_size=max_size, max_theorems=max_theorems),
    )


def test_bulk_counting_on_random_systems_is_pinned():
    rng = random.Random(9)
    digest = hashlib.sha256()
    truncated = 0
    for _ in range(60):
        system = _bulk_counting_system(rng)
        result = saturate(system)
        truncated += result.stop_reason == "max_theorems"
        digest.update(f"{steps_digest(result, system.store)}\t{result.stats}\n".encode())
    assert truncated >= 5
    assert digest.hexdigest() == (
        "e6afc1b18fd411d6fbfef84dacdebf21b28424a33658ab70c215841d97f71d1d"
    )


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
    # A run leaves the collector as the caller set it, during the run too.
    seen = []
    run_mp = engine._Saturation.run_mp

    def spy(self, delta):
        seen.append(gc.isenabled())
        run_mp(self, delta)

    monkeypatch.setattr(engine._Saturation, "run_mp", spy)
    gc.enable() if enabled else gc.disable()
    saturate(mk_system(["p", "p -> q"], [RuleKind.MP], atoms=("p", "q")))
    assert seen and all(state is enabled for state in seen)
    assert gc.isenabled() is enabled


def test_saturation_keeps_no_tracked_object_per_theorem(collector_state):
    # A step is a packed int and a text a str, neither tracked by the
    # collector, so what a run leaves tracked is the same for any run.
    def chain(n):
        return mk_system(
            ["a0"] + [f"a{i} -> a{i + 1}" for i in range(n)], [RuleKind.MP],
            max_generations=n + 1,
        )

    s7 = load_system(json.dumps({**S9, "bounds": {"max_formula_size": 7}}))
    systems = [chain(200), chain(2000), s7]
    gc.disable()
    for system in systems:  # whatever a first run sets up once
        saturate(system)
    growth = []
    for system in systems:
        gc.collect()
        before = len(gc.get_objects())
        result = saturate(system)
        growth.append(len(gc.get_objects()) - before)
        del result
    assert growth[0] == growth[1] == growth[2]


def test_saturation_keeps_no_tracked_object_per_antecedent():
    # An antecedent with one implication keeps its position as an int,
    # which the collector does not track: a chain has 2,000 of them.
    chain = mk_system(
        ["a0"] + [f"a{i} -> a{i + 1}" for i in range(2000)], [RuleKind.MP], max_generations=2001
    )
    run = engine._Saturation(chain)
    assert len(run.run().generations) == 4001
    assert len(run.impl_by_antecedent) == 2000
    assert not any(map(gc.is_tracked, run.impl_by_antecedent.values()))
    # From its second implication on, an antecedent keeps a list, and MP
    # fires on each implication in it.
    shared = mk_system(["p", "p -> q", "p -> r", "p -> s", "q -> t"], [RuleKind.MP])
    run = engine._Saturation(shared)
    result = run.run()
    assert theorem_texts(result, shared.store) == [
        "p", "p -> q", "p -> r", "p -> s", "q -> t", "q", "r", "s", "t"
    ]
    p, q = parse("p", shared.store).index, parse("q", shared.store).index
    assert run.impl_by_antecedent == {p: [1, 2, 3], q: 4}


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
    doc = {**S9, "axioms": S9["axioms"] + list(extra_axioms),
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
