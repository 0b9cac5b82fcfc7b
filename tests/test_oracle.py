from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from lemgap import oracle
from lemgap.formula import FormulaId, FormulaStore, atoms_of, parse
from lemgap.gap import demo_family, gap_report
from lemgap.oracle import (
    ATOM_LIMIT,
    MissingAtom,
    TooManyAtoms,
    Verdict,
    classify,
    entails,
    evaluate,
    independent,
)

from support import assignments_over, brute_force_entails, random_formula, truth_value
from test_formula import intern_shape, shapes


def test_evaluate_examples():
    store = FormulaStore()
    assert evaluate(parse("p -> q", store), {"p": True, "q": False}, store) is False
    assert evaluate(parse("p | ~p", store), {"p": False}, store) is True
    assert evaluate(parse("(p | ~p) -> q", store), {"p": True, "q": True}, store) is True


def test_evaluate_requires_total_assignment():
    store = FormulaStore()
    rows = [
        ("p & q", {"p": True}, "q"),
        # Complementary children settle `p | ~p` without its atom's value,
        # but the atom is still read.
        ("p | ~p", {}, "p"),
        ("(p | ~p) -> q", {"q": True}, "p"),
    ]
    for text, assignment, missing in rows:
        with pytest.raises(MissingAtom) as excinfo:
            evaluate(parse(text, store), assignment, store)
        assert excinfo.value.name == missing


def test_evaluate_ignores_extra_atoms():
    store = FormulaStore()
    assert evaluate(parse("p", store), {"p": True, "z": False}, store) is True


@given(shape=shapes())
def test_evaluate_matches_reference_evaluator(shape):
    store = FormulaStore()
    f = intern_shape(shape, store)
    for assignment in assignments_over(["p", "q", "r"]):
        assert evaluate(f, assignment, store) == truth_value(f, assignment, store)


def _random_dag(rng: random.Random, store: FormulaStore):
    """Atoms over at most 8 names, then nodes whose children are drawn from
    everything built so far, so subformulas are shared. One node in five
    pairs a node with its own negation, itself or a near miss, the
    negation of another node, in either order: `x | ~x`, `~x & x`,
    `x -> x`, `x | ~y`. Later nodes then nest these, and the constants
    they settle to, under every connective."""
    names = [f"a{i}" for i in range(rng.randint(1, 8))]
    nodes = [store.atom(name) for name in names]
    for _ in range(rng.randint(1, 40)):
        kind = rng.randrange(5)
        x, y = rng.choice(nodes), rng.choice(nodes)
        if kind == 0:
            nodes.append(store.neg(x))
            continue
        if kind == 4:
            kind = rng.randint(1, 3)
            y = rng.choice((x, store.neg(x), store.neg(y)))
            if rng.random() < 0.5:
                x, y = y, x
        nodes.append((store.conj, store.disj, store.impl)[kind - 1](x, y))
    return names, nodes


@pytest.mark.parametrize("seed", range(40))
def test_masks_yield_each_root_once_in_order(seed):
    # The walk gives the conjunction of its roots' masks. Several roots:
    # the last node built (a superformula of some earlier ones) in a random
    # position among nodes sampled from the whole DAG, so some roots are
    # subformulas of roots given before or after them. The first root is
    # given twice. Each root alone gives its own mask, and no root `full`.
    rng = random.Random(seed)
    store = FormulaStore()
    names, nodes = _random_dag(rng, store)
    roots = rng.sample(nodes[:-1], rng.randint(0, min(6, len(nodes) - 1)))
    roots.insert(rng.randint(0, len(roots)), nodes[-1])
    roots = list(dict.fromkeys(roots))
    n = len(names)
    atom_mask = {name: oracle._atom_mask(i, n) for i, name in enumerate(names)}.__getitem__
    full = (1 << (1 << n)) - 1
    given = [f.index for f in roots] + [roots[0].index]
    models = oracle._models(oracle._fold(given, store), atom_mask, full)
    masks = [oracle._models(oracle._fold((f.index,), store), atom_mask, full) for f in roots]
    assert oracle._models(oracle._fold((), store), atom_mask, full) == full
    for j in range(1 << n):
        assignment = {name: bool(j >> i & 1) for i, name in enumerate(names)}
        values = [truth_value(f, assignment, store) for f in roots]
        assert [evaluate(f, assignment, store) for f in roots] == values
        assert [bool(mask >> j & 1) for mask in masks] == values
        assert bool(models >> j & 1) is all(values)


@pytest.mark.parametrize(
    ("texts", "operations", "passed_on"),
    [
        # Complementary children, either side negated, under each connective.
        ("p | ~p", 0, "full"),
        ("~p | p", 0, "full"),
        ("~p & p", 0, None),
        ("p & ~p", 0, None),
        ("p -> ~p", 1, None),
        ("~p -> p", 0, "p"),
        ("p -> p", 0, "full"),
        # A child true in every assignment or in none, on either side.
        ("(p | ~p) -> q", 0, "q"),
        ("(p & ~p) -> q", 0, "full"),
        ("q -> (p | ~p)", 0, "full"),
        ("q -> (p & ~p)", 1, None),
        ("(p | ~p) & q", 0, "q"),
        ("q & (p | ~p)", 0, "q"),
        ("(p | ~p) | q", 0, "full"),
        ("q | (p | ~p)", 0, "full"),
        ("(p & ~p) | q", 0, "q"),
        ("q | (p & ~p)", 0, "q"),
        ("((p | ~p) -> q) -> r", 2, None),
        # A negation of a settled child is settled.
        ("~(p & ~p) -> q", 0, "q"),
        ("~(p | ~p) | q", 0, "q"),
        ("~~(p | ~p) -> q", 0, "q"),
        # Children are compared as settled: `q & ~q`, and `~q | q` with
        # `~q` written `q -> (p & ~p)`.
        ("((p | ~p) -> q) & ~q", 0, None),
        ("(q -> (p & ~p)) | q", 0, "full"),
        # A requested formula that is true is dropped, and two settled to
        # the same open formula are one.
        ("(p | ~p) -> q, (r | ~r) -> q", 0, "q"),
        ("q, p | ~p", 0, "q"),
        ("p | ~p, q", 0, "q"),
        ("p | q, q | r", 3, None),
        ("p & q, (r | ~r) -> p", 2, None),
        # Near misses and plain nodes take the 2**n-bit operations.
        ("p | ~q", 2, None),
        ("~p | q", 2, None),
        ("(~p | q) -> r", 4, None),
        ("(r | ~s) -> q", 4, None),
        ("p & q", 1, None),
        ("p -> q", 2, None),
    ],
)
def test_models_settles_complementary_and_constant_children_without_mask_operations(
    texts, operations, passed_on
):
    # Every mask is an int subclass that counts the bitwise operations it
    # takes part in, each one a 2**n-bit operation on real tables. A
    # subformula the fold settles costs none, passes an open subformula's
    # mask object, or `full`, on as itself, and reads no atom of its own:
    # in these rows the atoms read are exactly those the models depend on.
    counted = []

    class Mask(int):
        def _counting(name):
            def operation(self, other):
                counted.append(name)
                return Mask(getattr(int, name)(self, other))
            return operation

        __and__, __rand__, __or__, __ror__, __xor__, __rxor__ = map(
            _counting, ("__and__", "__rand__", "__or__", "__ror__", "__xor__", "__rxor__")
        )

    store = FormulaStore()
    roots = [parse(text, store) for text in texts.split(", ")]
    names = sorted({name for f in roots for name in atoms_of(f, store)})
    n = len(names)
    masks = {name: Mask(oracle._atom_mask(i, n)) for i, name in enumerate(names)}
    masks["full"] = Mask((1 << (1 << n)) - 1)
    read = []

    def atom_mask(name):
        read.append(name)
        return masks[name]

    fold = oracle._fold([f.index for f in roots], store)
    models = oracle._models(fold, atom_mask, masks["full"])
    assert len(counted) == operations, counted
    if passed_on is not None:
        assert models is masks[passed_on]
    holds = {}
    for j in range(1 << n):
        assignment = {name: bool(j >> i & 1) for i, name in enumerate(names)}
        holds[j] = all(truth_value(f, assignment, store) for f in roots)
        assert bool(models >> j & 1) is holds[j]
    relevant = {
        name for i, name in enumerate(names) if any(holds[j] != holds[j ^ 1 << i] for j in holds)
    }
    assert sorted(read) == sorted(fold.support) == sorted(relevant)


@pytest.mark.parametrize(
    ("text", "most"),
    [
        # The operand of larger need first: the right one here, so `p` is
        # not held through `q & (r & s)`.
        ("p & (q & (r & s))", 3),
        ("((p & q) & r) & s", 3),
        # Equal needs go left first. `r & r` reads one mask where `p & q`
        # reads two, so `p & q` is done before `r & r`'s mask is held.
        ("(p & q) | (r & r)", 3),
    ],
)
def test_models_holds_the_fewest_masks_at_once(text, most):
    # Every mask the walk makes or reads is an int subclass that counts
    # the masks alive at once; `full` is held by the test and not counted.
    live = [0, 0]

    class Mask(int):
        def __new__(cls, value):
            live[0] += 1
            live[1] = max(live[1], live[0])
            return int.__new__(cls, value)

        def __del__(self):
            live[0] -= 1

        def _making(name):
            def operation(self, other):
                return Mask(getattr(int, name)(self, other))
            return operation

        __and__, __rand__, __or__, __ror__, __xor__, __rxor__ = map(
            _making, ("__and__", "__rand__", "__or__", "__ror__", "__xor__", "__rxor__")
        )

    store = FormulaStore()
    f = parse(text, store)
    names = atoms_of(f, store)
    n = len(names)
    full = (1 << (1 << n)) - 1
    fold = oracle._fold((f.index,), store)
    models = oracle._models(fold, lambda name: Mask(oracle._atom_mask(names.index(name), n)), full)
    assert live[1] == most
    del models
    assert live[0] == 0


def test_classify_examples():
    store = FormulaStore()
    assert classify(parse("p | ~p", store), store) is Verdict.TAUTOLOGY
    assert classify(parse("p & ~p", store), store) is Verdict.CONTRADICTION
    assert classify(parse("p -> q", store), store) is Verdict.CONTINGENT


def test_classify_atom_limit():
    store = FormulaStore()
    ok = parse(" | ".join(f"x{i}" for i in range(ATOM_LIMIT)), store)
    assert classify(ok, store) is Verdict.CONTINGENT
    too_many = parse(" | ".join(f"x{i}" for i in range(ATOM_LIMIT + 1)), store)
    with pytest.raises(TooManyAtoms):
        classify(too_many, store)


def test_entails_lem_implication_axiom():
    # Brute force over the four {p, q} assignments: every model of the
    # axiom has q true, because p | ~p always holds.
    store = FormulaStore()
    axioms = (parse("(p | ~p) -> q", store),)
    goal = parse("q", store)
    assert brute_force_entails(axioms, goal, store) is True
    verdict = entails(axioms, goal, store)
    assert verdict.holds is True
    assert verdict.countermodel is None


def test_entails_tautology_from_nothing():
    store = FormulaStore()
    assert entails((), parse("p | ~p", store), store).holds is True


def test_entails_countermodel():
    store = FormulaStore()
    axioms = (parse("p -> q", store),)
    verdict = entails(axioms, parse("q", store), store)
    assert verdict.holds is False
    assert verdict.countermodel == {"p": False, "q": False}


def test_independent_examples():
    store = FormulaStore()
    # Models of the axiom exist with p true and with p false.
    assert independent((parse("(p | ~p) -> q", store),), parse("p", store), store) is True
    assert independent((parse("p", store),), parse("p", store), store) is False
    assert independent((), parse("p | ~p", store), store) is False


def test_independent_leaves_the_store_unchanged():
    store = FormulaStore()
    axioms = (parse("p -> q", store),)
    x = parse("q & r", store)
    before = len(store)
    assert independent(axioms, x, store) is True
    assert len(store) == before  # ~(q & r) was never interned


def test_unsatisfiable_axioms_entail_everything():
    store = FormulaStore()
    axioms = (parse("p", store), parse("~p", store))
    for text in ("q", "~q", "p & ~p"):
        assert entails(axioms, parse(text, store), store).holds is True
    assert independent(axioms, parse("q", store), store) is False


@given(shape=shapes())
def test_classify_tautology_iff_entailed_by_nothing(shape):
    store = FormulaStore()
    f = intern_shape(shape, store)
    assert (classify(f, store) is Verdict.TAUTOLOGY) == entails((), f, store).holds


@given(shape=shapes())
def test_negation_swaps_tautology_and_contradiction(shape):
    store = FormulaStore()
    f = intern_shape(shape, store)
    verdict = classify(f, store)
    negated = classify(store.neg(f), store)
    swap = {
        Verdict.TAUTOLOGY: Verdict.CONTRADICTION,
        Verdict.CONTRADICTION: Verdict.TAUTOLOGY,
        Verdict.CONTINGENT: Verdict.CONTINGENT,
    }
    assert negated is swap[verdict]


def _entailment_in_fresh_store(axiom_shapes, goal_shape, widen):
    store = FormulaStore()
    axioms = tuple(intern_shape(s, store) for s in axiom_shapes)
    goal = intern_shape(goal_shape, store)
    if widen:
        goal = store.disj(goal, store.atom("w"))
    return entails(axioms, goal, store)


@settings(max_examples=60)
@given(
    axiom_shapes=st.lists(shapes(), max_size=3),
    other_shapes=st.lists(shapes(("q", "r", "s")), max_size=3),
    goal_shape=shapes(),
    extra_shape=shapes(),
)
def test_entailment_brute_force_monotone_and_countermodel(
    axiom_shapes, other_shapes, goal_shape, extra_shape
):
    store = FormulaStore()
    axioms = tuple(intern_shape(s, store) for s in axiom_shapes)
    goal = intern_shape(goal_shape, store)
    verdict = entails(axioms, goal, store)
    assert verdict.holds == brute_force_entails(axioms, goal, store)
    if verdict.holds:
        # Monotone: a larger axiom set still entails the goal.
        bigger = (*axioms, intern_shape(extra_shape, store))
        assert entails(bigger, goal, store).holds is True
    else:
        # The countermodel must mechanically satisfy the axioms and
        # falsify the goal.
        model = verdict.countermodel
        assert all(evaluate(ax, model, store) for ax in axioms)
        assert evaluate(goal, model, store) is False
    assert verdict.countermodel == _lowest_violation(axioms, goal, store)

    # The store keeps the table of the last axiom set it was asked about.
    # Switching sets (A, B, then A again) and asking for a goal with an
    # atom outside the axioms must give the answer a fresh store gives,
    # countermodel included.
    other = tuple(intern_shape(s, store) for s in other_shapes)
    wide = store.disj(goal, store.atom("w"))
    queries = (
        (axioms, goal, axiom_shapes, False),
        (other, goal, other_shapes, False),
        (axioms, goal, axiom_shapes, False),
        (axioms, wide, axiom_shapes, True),
        (axioms, goal, axiom_shapes, False),
        (other, wide, other_shapes, True),
    )
    for query_axioms, query_goal, query_shapes, widen in queries:
        answer = entails(query_axioms, query_goal, store)
        assert answer == _entailment_in_fresh_store(query_shapes, goal_shape, widen)
        assert answer.holds == brute_force_entails(query_axioms, query_goal, store)
        assert answer.countermodel == _lowest_violation(query_axioms, query_goal, store)
        if not answer.holds:
            names = {n for f in (*query_axioms, query_goal) for n in atoms_of(f, store)}
            assert answer.countermodel.keys() == names
        assert independent(query_axioms, query_goal, store) == _brute_force_independent(
            query_axioms, query_goal, store
        )


def _lowest_violation(axioms, goal, store):
    """The lowest-numbered assignment satisfying every axiom and falsifying
    the goal, or None; assignment j gives the i-th of the sorted atoms
    bit i of j."""
    names = sorted({n for f in (*axioms, goal) for n in atoms_of(f, store)})
    for j in range(1 << len(names)):
        assignment = {name: bool(j >> i & 1) for i, name in enumerate(names)}
        if all(truth_value(ax, assignment, store) for ax in axioms):
            if not truth_value(goal, assignment, store):
                return assignment
    return None


def _brute_force_independent(axioms, x, store):
    names = sorted({n for f in (*axioms, x) for n in atoms_of(f, store)})
    return {
        truth_value(x, assignment, store)
        for assignment in assignments_over(names)
        if all(truth_value(ax, assignment, store) for ax in axioms)
    } == {False, True}


def test_entails_and_independent_match_brute_force_on_lbi_shaped_axioms():
    # Axioms drawn with near misses of the LBI antecedent `~x | x`, and the
    # antecedent itself, so the fold settles parts of them. Queries over
    # the axioms' atoms, over fresh atoms, over both, and settled ones
    # (`f | ~f`, `f & ~f`, a pivot's `(x | ~x) -> y`), asked of one store
    # in turn, so its kept table is reused. Every answer, countermodel
    # included, is the brute-force one. The draws cover both ways a query
    # is answered: over the axioms' assignments, and factored, when the
    # query's support misses the models'.
    answered = {"factored": 0, "shared": 0, "settled": 0}
    for seed in range(150):
        rng = random.Random(seed)
        store = FormulaStore()
        atoms = ("p", "q", "r")
        axioms = tuple(
            random_formula(rng, atoms, rng.randint(1, 9), store, near_misses=True)
            for _ in range(rng.randint(0, 3))
        )
        f = random_formula(rng, atoms, rng.randint(1, 7), store, near_misses=True)
        x, y = store.atom("x"), store.atom("y")
        queries = [
            f,
            random_formula(rng, ("x", "y"), rng.randint(1, 7), store, near_misses=True),
            random_formula(rng, ("p", "x", "y"), rng.randint(1, 9), store, near_misses=True),
            store.disj(f, store.neg(f)),
            store.conj(store.neg(f), f),
            store.impl(store.disj(x, store.neg(x)), y),
        ]
        for query in queries:
            table, own, _ = oracle._query(axioms, query, store)
            answered["shared" if own.position is table.position else "factored"] += 1
            answered["settled"] += oracle._fold((query.index,), store).roots in ((), (-2,))
            answer = entails(axioms, query, store)
            assert answer.countermodel == _lowest_violation(axioms, query, store)
            assert answer.holds is (answer.countermodel is None)
            assert independent(axioms, query, store) == _brute_force_independent(
                axioms, query, store
            )
    assert min(answered.values()) >= 100, answered


def test_too_many_atoms_counts_axioms_and_query():
    store = FormulaStore()
    wide = (parse(" | ".join(f"x{i}" for i in range(ATOM_LIMIT + 1)), store),)
    inside = parse("x0 & ~x19", store)
    for check in (entails, independent):
        with pytest.raises(TooManyAtoms) as excinfo:
            check(wide, inside, store)
        assert excinfo.value.count == ATOM_LIMIT + 1
    # The axiom table fits; the query's extra atom pushes the set over.
    axioms = tuple(parse(f"x{i} -> x{i + 1}", store) for i in range(ATOM_LIMIT - 1))
    assert entails(axioms, inside, store).holds is False
    for check in (entails, independent):
        with pytest.raises(TooManyAtoms) as excinfo:
            check(axioms, parse("x0 | y", store), store)
        assert excinfo.value.count == ATOM_LIMIT + 1
    assert entails(axioms, parse("x0 -> x19", store), store).holds is True
    assert independent(axioms, parse("x7", store), store) is True


def test_family_report_builds_the_axiom_table_once(monkeypatch):
    # 20 queries over the same 20-atom axioms `(p_i | ~p_i) -> q`: one
    # `entails` of the conclusion `q`, then one `independent` per pivot
    # for 19 pivots. Each axiom folds to `q`, so the table builds one
    # 2**20-bit atom mask, `q`'s, at position 19, and its models are that
    # mask. No pivot reads an atom the models depend on, so each is
    # answered over its own one atom, a 2-bit table.
    calls = []

    def counting(position, n_atoms):
        calls.append((position, n_atoms))
        return atom_mask(position, n_atoms)

    atom_mask = oracle._atom_mask
    monkeypatch.setattr(oracle, "_atom_mask", counting)
    report = gap_report(demo_family(19))
    assert [m.verification.oracle_entailed for m in report.gap] == [True]
    assert report.gap[0].verification.pivot_independent_semantically is True
    assert calls == [(19, 20)] + [(0, 1)] * 19


def test_a_query_over_the_axioms_own_atoms_reuses_their_table(monkeypatch):
    # `p -> q` and `p & q` have exactly the atoms of EQ1's axiom, so both
    # queries are answered from the one table the first of them builds.
    calls = []

    def counting(*args):
        calls.append(args)
        return truth_table(*args)

    truth_table = oracle._truth_table
    monkeypatch.setattr(oracle, "_truth_table", counting)
    store = FormulaStore()
    axioms = (parse("(p | ~p) -> q", store),)
    assert entails(axioms, parse("p -> q", store), store).holds is True
    assert independent(axioms, parse("p & q", store), store) is True
    assert len(calls) == 1


def test_axiom_tables_are_one_per_store_and_die_with_it():
    gc.collect()
    before = len(oracle._tables)
    stores = [FormulaStore(), FormulaStore()]
    for store in stores:
        a, b = parse("p -> q", store), parse("q -> r", store)
        for axioms in ((a,), (a, b), (b,)):
            entails(axioms, parse("r", store), store)
            independent(axioms, parse("q", store), store)
    assert len(oracle._tables) == before + 2
    alive = weakref.ref(stores[0])
    del stores[0], store, a, b, axioms
    gc.collect()
    assert alive() is None
    assert len(oracle._tables) == before + 1


def test_a_kept_axiom_table_is_not_reused_for_axioms_that_only_equal_its_ids():
    # A plain `(index, tag)` tuple and `FormulaId(True, tag)` compare equal
    # to the store's id for index 1, so they match the table the first
    # query kept; they are still refused, as they are without a kept table.
    store = FormulaStore()
    p, q = parse("p", store), parse("q", store)
    assert q.index == 1
    for forged in ((1, store._tag), FormulaId(True, store._tag)):
        assert (p, forged) == (p, q)
        for query in (entails, independent):
            assert query((p, q), p, store) == query([p, q], p, store)
            with pytest.raises(AssertionError):
                query((p, forged), p, store)


def test_distinct_queries_keep_only_the_axiom_table():
    # Per-query masks are not kept: 200 distinct queries against one
    # 16-atom axiom set grow traced memory by one table, (n + 2) * 2**n
    # bits (n atom masks, the models mask and the all-assignments mask),
    # plus slack for small objects. Keeping each query's masks would add
    # at least 200 * 2**n bits, 1.6 MB.
    n = 16

    def workload():
        store = FormulaStore()
        axioms = tuple(parse(f"x{i} -> x{i + 1}", store) for i in range(n - 1))
        queries = [
            parse(f"x{i} -> x{j}" if k else f"x{i} & ~x{j}", store)
            for i in range(n) for j in range(n) for k in range(2)
        ][:200]
        return store, axioms, queries

    # A first pass, untraced, fills the interpreter's free lists.
    store, axioms, queries = workload()
    for f in queries:
        entails(axioms, f, store)
    store, axioms, queries = workload()
    assert len(set(queries)) == 200
    table_bytes = (n + 2) * (1 << n) // 8
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for f in queries:
            entails(axioms, f, store)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= table_bytes + 128 * 1024
