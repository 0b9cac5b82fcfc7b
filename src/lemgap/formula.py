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

    Mutated only while interning; afterwards it is safe to share read-only.
    `node`, `size` and the constructors assert that an id is this store's.
    `AxiomaticSystem` checks its formulas once, on construction, so
    saturation indexes `sizes` and `nodes` directly.
    """

    def __init__(self) -> None:
        self._tag = next(_store_tags)
        self._nodes: list[Formula] = []
        self._sizes: list[int] = []
        self._index: dict[Formula, FormulaId] = {}
        self._render_cache: dict[int, tuple[str, int]] = {}

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

    def _intern(self, node: Formula, node_size: int) -> FormulaId:
        found = self._index.get(node)
        if found is not None:
            return found
        f = FormulaId(len(self._nodes), self._tag)
        self._nodes.append(node)
        self._sizes.append(node_size)
        self._index[node] = f
        return f

    def atom(self, name: str) -> FormulaId:
        if not ATOM_NAME.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        return self._intern(Atom(name), 1)

    def neg(self, f: FormulaId) -> FormulaId:
        assert f in self
        return self._intern(Not(f), 1 + self._sizes[f.index])

    def conj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        assert left in self and right in self
        return self._intern(And(left, right), 1 + self._sizes[left.index] + self._sizes[right.index])

    def disj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        assert left in self and right in self
        return self._intern(Or(left, right), 1 + self._sizes[left.index] + self._sizes[right.index])

    def impl(self, antecedent: FormulaId, consequent: FormulaId) -> FormulaId:
        assert antecedent in self and consequent in self
        return self._intern(
            Implies(antecedent, consequent),
            1 + self._sizes[antecedent.index] + self._sizes[consequent.index],
        )


def size(f: FormulaId, store: FormulaStore) -> int:
    """AST node count: atoms count 1, each connective 1 plus its children."""
    assert f in store
    return store._sizes[f.index]


def atoms_of(f: FormulaId, store: FormulaStore) -> tuple[str, ...]:
    """Sorted distinct atom names occurring in f."""
    names: set[str] = set()
    stack = [f]
    seen: set[int] = set()
    while stack:
        g = stack.pop()
        if g.index in seen:
            continue
        seen.add(g.index)
        node = store.node(g)
        match node:
            case Atom(name):
                names.add(name)
            case Not(child):
                stack.append(child)
            case And(left, right) | Or(left, right):
                stack.extend((left, right))
            case Implies(antecedent, consequent):
                stack.extend((antecedent, consequent))
    return tuple(sorted(names))


def subformula_closure(fs: Iterable[FormulaId], store: FormulaStore) -> frozenset[FormulaId]:
    """All subformulas of the inputs, the inputs included."""
    out: set[FormulaId] = set()
    stack = list(fs)
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        node = store.node(g)
        match node:
            case Atom(_):
                pass
            case Not(child):
                stack.append(child)
            case And(left, right) | Or(left, right):
                stack.extend((left, right))
            case Implies(antecedent, consequent):
                stack.extend((antecedent, consequent))
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
    "(": "(",
    ")": ")",
}

_ATOM_TOKEN = re.compile(r"[a-z][a-z0-9_]*")


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, lexeme, byte offset) triples, with a trailing 'end'."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("->", i):
            tokens.append(("->", "->", _byte_offset(text, i)))
            i += 2
            continue
        if ch in _TOKEN_ALIASES:
            tokens.append((_TOKEN_ALIASES[ch], ch, _byte_offset(text, i)))
            i += 1
            continue
        m = _ATOM_TOKEN.match(text, i)
        if m:
            tokens.append(("atom", m.group(), _byte_offset(text, i)))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(("end", "", _byte_offset(text, n)))
    return tokens


_PRIMARY_EXPECTED = ("atom", "'('", "'~'")


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], store: FormulaStore):
        self.tokens = tokens
        self.pos = 0
        self.store = store

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        kind, lexeme, offset = self.peek()
        what = "end of input" if kind == "end" else f"unexpected token {lexeme!r}"
        return ParseError(what, offset, expected)

    def implication(self) -> FormulaId:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take()
            right = self.implication()
            return self.store.impl(left, right)
        return left

    def disjunction(self) -> FormulaId:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take()
            left = self.store.disj(left, self.conjunction())
        return left

    def conjunction(self) -> FormulaId:
        left = self.negation()
        while self.peek()[0] == "&":
            self.take()
            left = self.store.conj(left, self.negation())
        return left

    def negation(self) -> FormulaId:
        kind, lexeme, _ = self.peek()
        if kind == "~":
            self.take()
            return self.store.neg(self.negation())
        if kind == "atom":
            self.take()
            return self.store.atom(lexeme)
        if kind == "(":
            self.take()
            inner = self.implication()
            if self.peek()[0] != ")":
                raise self.fail(("')'",))
            self.take()
            return inner
        raise self.fail(_PRIMARY_EXPECTED)


def parse(text: str, store: FormulaStore) -> FormulaId:
    """Parse `text` into an interned formula.

    Grammar: precedence `~` > `&` > `|` > `->`; `&` and `|` associate left,
    `->` associates right; parentheses override. Unicode connectives are
    accepted as aliases. Raises ParseError on malformed input.
    """
    parser = _Parser(_tokenize(text), store)
    f = parser.implication()
    if parser.peek()[0] != "end":
        raise parser.fail(("'&'", "'|'", "'->'", "end of input"))
    return f


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Binding strength used by the canonical renderer. A child is
# parenthesized when its own level is below the level its slot demands.
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def _rendered(f: FormulaId, store: FormulaStore) -> tuple[str, int]:
    cached = store._render_cache.get(f.index)
    if cached is not None:
        return cached
    node = store.node(f)
    match node:
        case Atom(name):
            out = (name, _LEVEL_UNARY)
        case Not(child):
            out = ("~" + _bracketed(child, _LEVEL_UNARY, store), _LEVEL_UNARY)
        case And(left, right):
            out = (
                _bracketed(left, _LEVEL_AND, store) + " & " + _bracketed(right, _LEVEL_UNARY, store),
                _LEVEL_AND,
            )
        case Or(left, right):
            out = (
                _bracketed(left, _LEVEL_OR, store) + " | " + _bracketed(right, _LEVEL_AND, store),
                _LEVEL_OR,
            )
        case Implies(antecedent, consequent):
            # The antecedent slot demands conjunction level, so or- and
            # implication-antecedents are parenthesized: `(p | ~p) -> q`.
            out = (
                _bracketed(antecedent, _LEVEL_AND, store)
                + " -> "
                + _bracketed(consequent, _LEVEL_IMPLIES, store),
                _LEVEL_IMPLIES,
            )
    store._render_cache[f.index] = out
    return out


def _bracketed(f: FormulaId, required: int, store: FormulaStore) -> str:
    text, level = _rendered(f, store)
    if level < required:
        return "(" + text + ")"
    return text


def render(f: FormulaId, store: FormulaStore) -> str:
    """Canonical ASCII text. parse(render(f)) always re-interns to f."""
    return _rendered(f, store)[0]
