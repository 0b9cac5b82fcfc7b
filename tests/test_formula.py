from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from lemgap import formula
from lemgap.engine import AxiomaticSystem, RuleKind, apply_rule
from lemgap.formula import (
    And,
    Atom,
    FormulaId,
    FormulaStore,
    Implies,
    Not,
    Or,
    ParseError,
    atoms_of,
    canonical_order,
    match_lbi_shape,
    parse,
    render,
    size,
    subformula_closure,
)
from lemgap.oracle import classify, entails, evaluate


def shapes(atom_names=("p", "q", "r")):
    return st.recursive(
        st.sampled_from(atom_names).map(lambda s: ("atom", s)),
        lambda inner: st.one_of(
            st.tuples(st.just("not"), inner),
            st.tuples(st.just("and"), inner, inner),
            st.tuples(st.just("or"), inner, inner),
            st.tuples(st.just("implies"), inner, inner),
        ),
        max_leaves=8,
    )


def intern_shape(shape, store: FormulaStore) -> FormulaId:
    kind = shape[0]
    if kind == "atom":
        return store.atom(shape[1])
    if kind == "not":
        return store.neg(intern_shape(shape[1], store))
    left = intern_shape(shape[1], store)
    right = intern_shape(shape[2], store)
    if kind == "and":
        return store.conj(left, right)
    if kind == "or":
        return store.disj(left, right)
    return store.impl(left, right)


# --- parsing -----------------------------------------------------------------

def test_parse_implication():
    store = FormulaStore()
    f = parse("p -> q", store)
    node = store.node(f)
    assert isinstance(node, Implies)
    assert store.node(node.antecedent) == Atom("p")
    assert store.node(node.consequent) == Atom("q")


def test_parse_lem_implication_shape():
    store = FormulaStore()
    f = parse("(p | ~p) -> q", store)
    node = store.node(f)
    assert isinstance(node, Implies)
    ant = store.node(node.antecedent)
    assert isinstance(ant, Or)
    assert store.node(ant.left) == Atom("p")
    assert store.node(ant.right) == Not(ant.left)
    assert store.node(node.consequent) == Atom("q")


def test_parse_precedence():
    store = FormulaStore()
    f = parse("~p & q | r", store)
    node = store.node(f)
    assert isinstance(node, Or)
    left = store.node(node.left)
    assert isinstance(left, And)
    assert isinstance(store.node(left.left), Not)
    assert store.node(node.right) == Atom("r")


def test_parse_right_associative_implication():
    store = FormulaStore()
    assert parse("p -> q -> r", store) == parse("p -> (q -> r)", store)


def test_parse_left_associative_and_or():
    store = FormulaStore()
    assert parse("p & q & r", store) == parse("(p & q) & r", store)
    assert parse("p | q | r", store) == parse("(p | q) | r", store)


def test_parse_truncated_input_offset():
    store = FormulaStore()
    with pytest.raises(ParseError) as err:
        parse("p ->", store)
    assert err.value.offset == 4
    assert "atom" in err.value.expected


def test_parse_error_offsets():
    store = FormulaStore()
    with pytest.raises(ParseError) as err:
        parse("p->", store)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse("", store)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("p q", store)
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse("(p | q", store)
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse("p # q", store)
    assert err.value.offset == 2


def test_parse_unicode_aliases():
    store = FormulaStore()
    assert parse("(p ∨ ¬p) → q", store) == parse("(p | ~p) -> q", store)
    assert parse("p ∧ q", store) == parse("p & q", store)


def test_parse_error_offset_is_bytes():
    store = FormulaStore()
    # Lone negation: end of input at char 1 but byte 2 (the sign is 2 bytes).
    with pytest.raises(ParseError) as err:
        parse("¬", store)
    assert err.value.offset == 2
    # Trailing token: the second sign starts at byte 4.
    with pytest.raises(ParseError) as err:
        parse("¬p ¬", store)
    assert err.value.offset == 4
    # A stray character after a multi-byte sign: '#' starts at byte 4.
    with pytest.raises(ParseError) as err:
        parse("¬p # q", store)
    assert err.value.offset == 4
    assert err.value.message == "unexpected character '#'"
    # Multi-byte whitespace counts in bytes too: U+3000 is 3 bytes and
    # U+00A0 is 2, so the stray ')' starts at byte 1 + 3 + 1 + 2 = 7.
    with pytest.raises(ParseError) as err:
        parse("p\u3000&\u00a0)", store)
    assert err.value.offset == 7
    assert err.value.expected == ("atom", "'('", "'~'")


def test_atom_name_validation():
    store = FormulaStore()
    with pytest.raises(ValueError):
        store.atom("P")
    with pytest.raises(ValueError):
        store.atom("")
    with pytest.raises(ValueError):
        store.atom("1a")
    assert store.node(store.atom("a_1")) == Atom("a_1")


# --- rendering ---------------------------------------------------------------

def test_render_examples():
    store = FormulaStore()
    p = store.atom("p")
    q = store.atom("q")
    r = store.atom("r")
    assert render(store.impl(store.disj(p, store.neg(p)), q), store) == "(p | ~p) -> q"
    assert render(p, store) == "p"
    assert render(store.impl(p, store.impl(q, r)), store) == "p -> q -> r"


def test_render_parenthesization():
    store = FormulaStore()
    cases = [
        "~(p & q)",
        "~~p",
        "p & (q | r)",
        "p | q & r",
        "(p -> q) -> r",
        "p & q -> r",
        "~p -> q",
        "p | (q | r)",
        "p & (q & r)",
        "(p -> q) & r",
    ]
    for text in cases:
        assert render(parse(text, store), store) == text


def test_render_builds_only_the_subformulas_it_needs():
    # p conjoined with itself 16 times: 17 nodes whose texts take about 1 MB.
    store = FormulaStore()
    tower = [store.atom("p")]
    for _ in range(16):
        tower.append(store.conj(tower[-1], tower[-1]))
    f = store.conj(store.atom("q"), store.atom("r"))
    tracemalloc.start()
    try:
        text = render(f, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "q & r"
    assert peak < 64 * 1024
    assert render(tower[2], store) == "p & p & (p & p)"
    assert render(f, store) == "q & r"


def test_canonical_order_sorts_by_size_then_text():
    store = FormulaStore()
    texts = ["q -> p", "p & q", "~r", "q", "p | q", "(p -> q) -> r", "p", "~~p", "q & p"]
    fs = [parse(text, store) for text in texts]
    expected = sorted(fs, key=lambda f: (size(f, store), render(f, store)))
    assert canonical_order(reversed(fs), store) == expected
    assert [render(f, store) for f in expected[:3]] == ["p", "q", "~r"]
    # Only the formulas given and their subformulas are rendered.
    tower = [store.atom("s")]
    for _ in range(16):
        tower.append(store.conj(tower[-1], tower[-1]))
    f = store.conj(store.atom("t"), store.atom("u"))
    tracemalloc.start()
    try:
        ordered = canonical_order([f, store.atom("u")], store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ordered == [store.atom("u"), f]
    assert peak < 64 * 1024
    with pytest.raises(AssertionError):
        canonical_order([f], FormulaStore())


def test_render_parse_round_trip_examples():
    store = FormulaStore()
    for text in ["(p|~p)->q", "~p&q|r", "p->q->r", "((a))", "~ ~ x | y -> z & w"]:
        f = parse(text, store)
        assert parse(render(f, store), store) == f


@given(shape=shapes())
def test_render_parse_round_trip_property(shape):
    store = FormulaStore()
    f = intern_shape(shape, store)
    assume(size(f, store) <= 15)
    assert parse(render(f, store), store) == f


# --- interning ---------------------------------------------------------------

def test_interning_same_structure_same_id():
    store = FormulaStore()
    a = parse("p & (q | r)", store)
    b = store.conj(store.atom("p"), store.disj(store.atom("q"), store.atom("r")))
    assert a == b


def test_interning_distinct_structures_distinct_ids():
    store = FormulaStore()
    assert parse("p & q", store) != parse("q & p", store)
    assert parse("p", store) != parse("~~p", store)


@given(shape_a=shapes(), shape_b=shapes())
def test_interning_soundness_property(shape_a, shape_b):
    store = FormulaStore()
    a = intern_shape(shape_a, store)
    b = intern_shape(shape_b, store)
    assert (a == b) == (shape_a == shape_b)


def _table_state(store):
    """A deep copy of the store's tables, and how many nodes and rows it holds."""
    tables = [{key: dict(row) if type(row) is dict else row for key, row in table.items()}
              for table in store._tables]
    return tables, len(store), sum(map(len, store._tables[formula.AND:]))


def test_lookup_opens_no_row():
    store = FormulaStore()
    p, q, r, conj = (parse(text, store).index for text in ("p", "q", "r", "p & q"))
    before = _table_state(store)
    assert store._lookup(formula.AND, q, p) is None  # q has no AND row
    assert store._lookup(formula.AND, p, r) is None  # p's row lacks r
    assert store._lookup(formula.OR, p, q) is None  # no OR row at all
    assert store._lookup(formula.NOT, p) is None
    assert store._lookup(formula.AND, p, q) == conj
    assert _table_state(store) == before
    assert store._tables[formula.AND] == {p: {q: conj}}


def test_intern_binary_adds_to_the_left_operands_row():
    store = FormulaStore()
    p, q, r = (store._atom(name) for name in "pqr")
    conj = store._intern_binary(formula.AND, p, q)
    row = store._tables[formula.AND][p]
    assert row == {q: conj}
    # A new node whose left operand has a row joins that row, and opens none.
    other = store._intern_binary(formula.AND, p, r)
    assert other == len(store) - 1 and other != conj
    assert store._tables[formula.AND][p] is row and row == {q: conj, r: other}
    assert len(store._tables[formula.AND]) == 1
    # A node already held is found in its row, and nothing is added.
    assert store._intern_binary(formula.AND, p, r) == other and len(store) == other + 1
    # A left operand without a row opens one, holding the new node.
    mirror = store._intern_binary(formula.AND, r, p)
    assert store._tables[formula.AND] == {p: {q: conj, r: other}, r: {p: mirror}}
    assert store._tables[formula.OR] == {} and store._tables[formula.IMPLIES] == {}


def test_cross_store_id_rejected():
    store_a = FormulaStore()
    store_b = FormulaStore()
    f = store_a.atom("p")
    for reject in (store_b.node, lambda g: render(g, store_b)):
        with pytest.raises(AssertionError):
            reject(f)
    # Same index, other store: a different id. Equal to its plain tuple.
    assert store_b.atom("p") != f
    assert f == (f.index, f.store_tag)


# Every public entry that takes an id, each called on one `f`.
_ID_ENTRIES = {
    "render": render,
    "size": size,
    "atoms_of": atoms_of,
    "subformula_closure": lambda f, store: subformula_closure([f], store),
    "canonical_order": lambda f, store: canonical_order([f], store),
    "match_lbi_shape": match_lbi_shape,
    "node": lambda f, store: store.node(f),
    "evaluate": lambda f, store: evaluate(f, {}, store),
    "classify": classify,
    "entails": lambda f, store: entails((), f, store),
    "apply_rule": lambda f, store: apply_rule(RuleKind.AND_ELIM_L, [f], store),
    "AxiomaticSystem": lambda f, store: AxiomaticSystem(
        store=store, atoms=("p", "q"), axioms=(f,), rules=frozenset()
    ),
}


class _IntTag(int):
    pass


# Ids that are not the store's, each with the store's tag or one equal to it.
# A plain tuple equals the store's id for its index, but is not an id.
_FORGED = {
    "plain-tuple": lambda store: (1, store._tag),
    "index-minus-1": lambda store: FormulaId(-1, store._tag),
    "index-len": lambda store: FormulaId(len(store), store._tag),
    "index-float": lambda store: FormulaId(1.0, store._tag),
    "index-bool": lambda store: FormulaId(True, store._tag),
    "tag-float": lambda store: FormulaId(1, float(store._tag)),
    "tag-int-subclass": lambda store: FormulaId(1, _IntTag(store._tag)),
}


@pytest.mark.parametrize("forge", list(_FORGED))
@pytest.mark.parametrize("entry", list(_ID_ENTRIES))
def test_out_of_range_id_rejected(entry, forge):
    # An id with the store's tag but an index outside the store, or not an
    # `int`, is not the store's: -1 would otherwise read the last node,
    # `(p | ~p) -> q`, True would render `~p`, and 1.0 fail to index a list.
    # Nor is an id whose tag equals the store's but is not an `int`, nor a
    # plain `(index, tag)` tuple, whose `.index` would be `tuple.index`.
    store = FormulaStore()
    parse("(p | ~p) -> q", store)
    forged = _FORGED[forge](store)
    with pytest.raises(AssertionError):
        _ID_ENTRIES[entry](forged, store)
    assert forged not in store


def test_children_precede_parents():
    store = FormulaStore()
    f = parse("(p | ~p) -> q", store)
    node = store.node(f)
    assert node.antecedent.index < f.index
    assert node.consequent.index < f.index


def test_nodes_built_from_the_columns_match_their_text():
    # Every node of a saturated S9 store is built on demand from the
    # columns. Rebuilt in a new store from its node alone, each formula
    # must render to its own text, which parse inverts: so the node has
    # the type, name and children its text names. (Parsing all 110k texts
    # into the new store instead takes about 4 s longer.)
    import json

    from lemgap.engine import load_system, saturate
    from cli_corpus import S9

    doc = {**S9, "bounds": {"max_formula_size": 9, "max_theorems": 2_000_000}}
    system = load_system(json.dumps(doc))
    saturate(system)
    store, other = system.store, FormulaStore()
    tag = system.axioms[0].store_tag
    assert len(store) > 110_000
    rebuilt = []  # by index of `store`
    for i in range(len(store)):
        f = FormulaId(i, tag)
        match store.node(f):
            case Atom(name):
                g = other.atom(name)
            case Not(child):
                g = other.neg(rebuilt[child.index])
            case And(left, right):
                g = other.conj(rebuilt[left.index], rebuilt[right.index])
            case Or(left, right):
                g = other.disj(rebuilt[left.index], rebuilt[right.index])
            case Implies(antecedent, consequent):
                g = other.impl(rebuilt[antecedent.index], rebuilt[consequent.index])
        rebuilt.append(g)
        assert render(g, other) == render(f, store)


def test_nodes_equal_only_nodes_of_their_own_class():
    store = FormulaStore()
    p, q = store.atom("p"), store.atom("q")
    both = And(p, q)
    assert both == And(p, q) and hash(both) == hash(And(p, q))
    assert store.node(store.conj(p, q)) == both
    for other in (Or(p, q), Implies(p, q), (p, q)):
        assert both != other and other != both and not both == other
        assert hash(both) != hash(other)
    assert Atom("p") != ("p",) and Not(p) != (p,) and hash(Not(p)) != hash((p,))
    assert And.__match_args__ == ("left", "right")


# --- structural queries ------------------------------------------------------

def test_size_examples():
    store = FormulaStore()
    assert size(parse("p", store), store) == 1
    assert size(parse("~p", store), store) == 2
    assert size(parse("(p | ~p) -> q", store), store) == 6


@given(shape=shapes())
def test_size_at_least_one_and_one_iff_atom(shape):
    store = FormulaStore()
    f = intern_shape(shape, store)
    s = size(f, store)
    assert s >= 1
    assert (s == 1) == isinstance(store.node(f), Atom)


def test_atoms_of_examples():
    store = FormulaStore()
    assert atoms_of(parse("(p | ~p) -> q", store), store) == ("p", "q")
    assert atoms_of(parse("p & p", store), store) == ("p",)
    assert atoms_of(parse("a -> (b | c)", store), store) == ("a", "b", "c")


def test_subformula_closure_examples():
    store = FormulaStore()
    f = parse("(p | ~p) -> q", store)
    expected = {
        f,
        parse("p | ~p", store),
        parse("~p", store),
        parse("p", store),
        parse("q", store),
    }
    assert subformula_closure([f], store) == expected
    assert subformula_closure([], store) == frozenset()
    assert subformula_closure([parse("p", store), parse("~p", store)], store) == {
        parse("p", store),
        parse("~p", store),
    }


# --- the case-split implication shape ---------------------------------------

def test_match_lbi_shape_examples():
    store = FormulaStore()
    p = store.atom("p")
    q = store.atom("q")
    r = store.atom("r")
    assert match_lbi_shape(parse("(p | ~p) -> q", store), store) == (p, q)
    assert match_lbi_shape(parse("(~p | p) -> q", store), store) == (p, q)
    assert match_lbi_shape(parse("(p | ~q) -> r", store), store) is None
    assert match_lbi_shape(parse("p -> q", store), store) is None
    assert match_lbi_shape(parse("p | ~p", store), store) is None


def test_match_lbi_shape_is_syntactic_only():
    store = FormulaStore()
    # ~~p is not the literal negation of p, so this must not match.
    assert match_lbi_shape(parse("(~p | ~~p) -> q", store), store) == (
        parse("~p", store),
        parse("q", store),
    )
    assert match_lbi_shape(parse("(p | ~~p) -> q", store), store) is None


def test_match_lbi_shape_compound_pivot():
    store = FormulaStore()
    got = match_lbi_shape(parse("((a & b) | ~(a & b)) -> (c -> a)", store), store)
    assert got == (parse("a & b", store), parse("c -> a", store))


@given(pivot_shape=shapes(), conclusion_shape=shapes(), commuted=st.booleans())
def test_match_lbi_shape_reconstruction_property(pivot_shape, conclusion_shape, commuted):
    store = FormulaStore()
    x = intern_shape(pivot_shape, store)
    y = intern_shape(conclusion_shape, store)
    disjunction = (
        store.disj(store.neg(x), x) if commuted else store.disj(x, store.neg(x))
    )
    f = store.impl(disjunction, y)
    matched = match_lbi_shape(f, store)
    assert matched is not None
    pivot, conclusion = matched
    assert conclusion == y
    rebuilt_plain = store.impl(store.disj(pivot, store.neg(pivot)), conclusion)
    rebuilt_commuted = store.impl(store.disj(store.neg(pivot), pivot), conclusion)
    assert f in (rebuilt_plain, rebuilt_commuted)
    assert size(f, store) == 2 * size(pivot, store) + size(conclusion, store) + 3
