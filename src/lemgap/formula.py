"""Propositional formulas: interned AST, parser, renderer, structural queries.

Formulas live in a FormulaStore (an append-only arena with perfect
interning), so structural equality is id equality and sharing is free.
The surface syntax is ASCII (`~ & | ->`) with the Unicode connectives
accepted as input aliases.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Formula",
    "FormulaId",
    "FormulaStore",
    "ParseError",
    "parse",
    "render",
    "canonical_order",
    "size",
    "atoms_of",
    "subformula_closure",
    "match_lbi_shape",
]

ATOM_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

_store_tags = itertools.count(1)


class FormulaId(NamedTuple):
    """Opaque handle into a FormulaStore. Equal iff same store and structure.

    As a NamedTuple it hashes and compares in C, and it also compares equal
    to a plain `(index, store_tag)` tuple.
    """

    index: int
    store_tag: int


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    child: FormulaId


@dataclass(frozen=True, slots=True)
class And:
    left: FormulaId
    right: FormulaId


@dataclass(frozen=True, slots=True)
class Or:
    left: FormulaId
    right: FormulaId


@dataclass(frozen=True, slots=True)
class Implies:
    antecedent: FormulaId
    consequent: FormulaId


Formula = Atom | Not | And | Or | Implies


class FormulaStore:
    """Append-only interning arena. Ids never change meaning once issued.

    Children always precede parents: a node is interned only after its
    children, so every child index is below its parent's. This invariant
    is load-bearing. `render`, the oracle's truth masks and the parser all
    walk formulas in ascending index order or on an explicit stack instead
    of recursing, so no formula is too deep for them.

    Interning looks a node up by its atom name or child indices, so a node
    object is built only when it is new. The store is mutated by interning
    and by `render`, which fills an index-aligned text cache; it is not
    thread-safe. `node`, `size`, `render` and the constructors assert that
    an id is this store's. `AxiomaticSystem` checks its formulas once, on
    construction, so saturation indexes `sizes` and `nodes` directly and
    interns through `_intern_binary`, the routine behind `conj`, `disj`
    and `impl`.
    """

    def __init__(self) -> None:
        self._tag = next(_store_tags)
        self._nodes: list[Formula] = []
        self._sizes: list[int] = []
        self._texts: list[Optional[str]] = []  # render cache; None until rendered
        # One lookup table per node type. A binary node's key is
        # `left << 32 | right` over its child indices, which is unique
        # while every index is below 2**32; a store of 2**32 nodes would
        # need hundreds of GB, so that bound is never reached.
        self._tables: dict[type, dict] = {Atom: {}, Not: {}, And: {}, Or: {}, Implies: {}}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, f: FormulaId) -> bool:
        return f.store_tag == self._tag and 0 <= f.index < len(self._nodes)

    @property
    def sizes(self) -> Sequence[int]:
        """Live, index-aligned formula sizes; read it, never mutate it."""
        return self._sizes

    @property
    def nodes(self) -> Sequence[Formula]:
        """Live, index-aligned nodes; read it, never mutate it."""
        return self._nodes

    def node(self, f: FormulaId) -> Formula:
        assert f.store_tag == self._tag, "FormulaId belongs to a different store"
        return self._nodes[f.index]

    def _add(self, table: dict, key: object, node: Formula, node_size: int) -> FormulaId:
        f = table[key] = FormulaId(len(self._nodes), self._tag)
        self._nodes.append(node)
        self._sizes.append(node_size)
        return f

    def _intern_binary(self, kind: type, left: FormulaId, right: FormulaId) -> FormulaId:
        """Intern `kind(left, right)` without checking that the ids are this store's."""
        table = self._tables[kind]
        key = left.index << 32 | right.index
        found = table.get(key)
        if found is not None:
            return found
        node_size = 1 + self._sizes[left.index] + self._sizes[right.index]
        return self._add(table, key, kind(left, right), node_size)

    def atom(self, name: str) -> FormulaId:
        if not ATOM_NAME.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        table = self._tables[Atom]
        found = table.get(name)
        return found if found is not None else self._add(table, name, Atom(name), 1)

    def neg(self, f: FormulaId) -> FormulaId:
        assert f in self
        table = self._tables[Not]
        found = table.get(f.index)
        if found is not None:
            return found
        return self._add(table, f.index, Not(f), 1 + self._sizes[f.index])

    def conj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        assert left in self and right in self
        return self._intern_binary(And, left, right)

    def disj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        assert left in self and right in self
        return self._intern_binary(Or, left, right)

    def impl(self, antecedent: FormulaId, consequent: FormulaId) -> FormulaId:
        assert antecedent in self and consequent in self
        return self._intern_binary(Implies, antecedent, consequent)


def size(f: FormulaId, store: FormulaStore) -> int:
    """AST node count: atoms count 1, each connective 1 plus its children."""
    assert f in store
    return store._sizes[f.index]


def atoms_of(f: FormulaId, store: FormulaStore) -> tuple[str, ...]:
    """Sorted distinct atom names occurring in f."""
    closure = subformula_closure([f], store)
    return tuple(sorted({n.name for n in map(store.node, closure) if isinstance(n, Atom)}))


def subformula_closure(fs: Iterable[FormulaId], store: FormulaStore) -> frozenset[FormulaId]:
    """All subformulas of the inputs, the inputs included."""
    out: set[FormulaId] = set()
    stack = list(fs)
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        match store.node(g):
            case Not(child):
                stack.append(child)
            case And(left, right) | Or(left, right) | Implies(left, right):
                stack.extend((left, right))
    return frozenset(out)


def match_lbi_shape(f: FormulaId, store: FormulaStore) -> Optional[tuple[FormulaId, FormulaId]]:
    """Match `(x | ~x) -> y` or `(~x | x) -> y`; return (pivot, conclusion).

    Purely syntactic: the two disjuncts must be a formula and its literal
    negation, in either order. Deep equivalences (e.g. `~~x` vs `x`) do
    not match.
    """
    node = store.node(f)
    if not isinstance(node, Implies):
        return None
    ant = store.node(node.antecedent)
    if not isinstance(ant, Or):
        return None
    left_node = store.node(ant.left)
    right_node = store.node(ant.right)
    if isinstance(right_node, Not) and right_node.child == ant.left:
        return ant.left, node.consequent
    if isinstance(left_node, Not) and left_node.child == ant.right:
        return ant.right, node.consequent
    return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(Exception):
    """Malformed formula text. Carries the byte offset of the failure and
    the set of token kinds that would have been accepted there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = message
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(f"{detail} at offset {offset}")
        self.message = message


_TOKEN_ALIASES = {
    "~": "~",
    "¬": "~",      # ¬
    "&": "&",
    "∧": "&",      # ∧
    "|": "|",
    "∨": "|",      # ∨
    "→": "->",     # →
    "->": "->",
    "(": "(",
    ")": ")",
}

# Whitespace, then a connective, a parenthesis or an atom; the empty
# alternative matches at the end of the text or at a stray character.
_TOKEN = re.compile(r"\s*(" + "|".join(map(re.escape, _TOKEN_ALIASES)) + r"|[a-z][a-z0-9_]*|)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, lexeme, byte offset) triples, with a trailing 'end'."""
    tokens: list[tuple[str, str, int]] = []
    i = offset = 0  # character and UTF-8 byte position
    while True:
        m = _TOKEN.match(text, i)
        offset += len(text[i : m.start(1)].encode("utf-8"))  # skipped whitespace
        if not (lexeme := m.group(1)):
            break
        tokens.append((_TOKEN_ALIASES.get(lexeme, "atom"), lexeme, offset))
        offset += len(lexeme.encode("utf-8"))
        i = m.end()
    if m.end() < len(text):
        raise ParseError(f"unexpected character {text[m.end()]!r}", offset)
    tokens.append(("end", "", offset))
    return tokens


_PRIMARY_EXPECTED = ("atom", "'('", "'~'")


def _unexpected(token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
    kind, lexeme, offset = token
    what = "end of input" if kind == "end" else f"unexpected token {lexeme!r}"
    return ParseError(what, offset, expected)


def parse(text: str, store: FormulaStore) -> FormulaId:
    """Parse `text` into an interned formula.

    Grammar: precedence `~` > `&` > `|` > `->`; `&` and `|` associate left,
    `->` associates right; parentheses override. Unicode connectives are
    accepted as aliases. Raises ParseError on malformed input.

    One loop over an explicit stack of pending `~` and `(` markers and
    `&`, `|`, `->` left operands, so nesting depth is bounded by memory
    only. Each node is interned as soon as its last operand is complete,
    so children are interned before parents, left to right.
    """
    tokens = _tokenize(text)
    pending: list[tuple[str, Optional[FormulaId]]] = []
    pos = 0
    while True:
        # An operand: prefix markers stack up until an atom arrives.
        token = tokens[pos]
        pos += 1
        if token[0] in ("~", "("):
            pending.append((token[0], None))
            continue
        if token[0] != "atom":
            raise _unexpected(token, _PRIMARY_EXPECTED)
        f = store.atom(token[1])
        # Close every construct the operand completes, up to the next
        # binary operator, which is then pushed with f as its left operand.
        while True:
            while pending and pending[-1][0] == "~":
                pending.pop()
                f = store.neg(f)
            if pending and pending[-1][0] == "&":
                f = store.conj(pending.pop()[1], f)
            kind = tokens[pos][0]
            if kind == "&":
                break
            if pending and pending[-1][0] == "|":
                f = store.disj(pending.pop()[1], f)
            if kind in ("|", "->"):
                break
            while pending and pending[-1][0] == "->":
                f = store.impl(pending.pop()[1], f)
            if not pending:
                if kind != "end":
                    raise _unexpected(tokens[pos], ("'&'", "'|'", "'->'", "end of input"))
                return f
            if kind != ")":  # the top of the stack is now a "(" marker
                raise _unexpected(tokens[pos], ("')'",))
            pending.pop()
            pos += 1
        pending.append((kind, f))
        pos += 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Binding strength used by the canonical renderer, by node type. A child is
# parenthesized when its own level is below the level its slot demands.
_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4
_LEVELS = {Atom: _LEVEL_UNARY, Not: _LEVEL_UNARY, And: _LEVEL_AND, Or: _LEVEL_OR,
           Implies: _LEVEL_IMPLIES}
# Infix text, the levels the left and right slots demand, and the
# operands. The antecedent slot demands conjunction level, so or- and
# implication-antecedents are parenthesized: `(p | ~p) -> q`.
_INFIX = {
    And: (" & ", _LEVEL_AND, _LEVEL_UNARY, attrgetter("left", "right")),
    Or: (" | ", _LEVEL_OR, _LEVEL_AND, attrgetter("left", "right")),
    Implies: (" -> ", _LEVEL_AND, _LEVEL_IMPLIES, attrgetter("antecedent", "consequent")),
}


def _slot(
    child: FormulaId, required: int, texts: Sequence[Optional[str]], nodes: Sequence[Formula]
) -> str:
    text = texts[child.index]
    if _LEVELS[type(nodes[child.index])] < required:
        return "(" + text + ")"
    return text


def _fill_texts(fs: Iterable[FormulaId], store: FormulaStore) -> list[Optional[str]]:
    """Cache the text of every formula in `fs` and of its subformulas.

    Returns the store's index-aligned text cache, which holds None for a
    node that nothing has rendered yet. Nothing else is rendered: with
    shared subterms a node's text can be exponentially longer than the
    store, so unrelated nodes are never touched. The ids are not checked.
    """
    texts = store._texts
    nodes = store._nodes
    texts.extend([None] * (len(nodes) - len(texts)))
    # A node with text has texts for all its subformulas, so the walk
    # stops there.
    missing: set[int] = set()
    stack = [f.index for f in fs if texts[f.index] is None]
    while stack:
        i = stack.pop()
        if texts[i] is not None or i in missing:
            continue
        missing.add(i)
        node = nodes[i]
        if type(node) is Not:
            stack.append(node.child.index)
        elif type(node) is not Atom:
            left, right = _INFIX[type(node)][3](node)
            stack += (left.index, right.index)
    # Ascending index order renders children before their parents.
    for i in sorted(missing):
        node = nodes[i]
        if type(node) is Atom:
            text = node.name
        elif type(node) is Not:
            text = "~" + _slot(node.child, _LEVEL_UNARY, texts, nodes)
        else:
            infix, left_level, right_level, operands = _INFIX[type(node)]
            left, right = operands(node)
            left_text = _slot(left, left_level, texts, nodes)
            text = left_text + infix + _slot(right, right_level, texts, nodes)
        texts[i] = text
    return texts


def render(f: FormulaId, store: FormulaStore) -> str:
    """Canonical ASCII text. parse(render(f)) always re-interns to f.

    Caches the text of f and of its subformulas in the store, so each node
    only joins the cached texts of its children, which precede it.
    """
    assert f.store_tag == store._tag, "FormulaId belongs to a different store"
    if f.index < len(store._texts) and (text := store._texts[f.index]) is not None:
        return text
    return _fill_texts((f,), store)[f.index]


def canonical_order(fs: Iterable[FormulaId], store: FormulaStore) -> list[FormulaId]:
    """The formulas of `fs` sorted by (size, text), the canonical order.

    Renders, and caches, only the formulas of `fs` and their subformulas.
    """
    ordered = list(fs)
    tag = store._tag
    assert all(f.store_tag == tag for f in ordered), "FormulaId belongs to a different store"
    texts = _fill_texts(ordered, store)
    sizes = store._sizes
    # A stable sort by size of the text-sorted list orders by (size, text)
    # without building a key tuple per formula.
    ordered.sort(key=lambda f: texts[f.index])
    ordered.sort(key=lambda f: sizes[f.index])
    return ordered
