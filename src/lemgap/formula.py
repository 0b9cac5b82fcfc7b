"""Propositional formulas: interned AST, parser, renderer, structural queries.

Formulas live in a FormulaStore (an append-only arena of int columns with
perfect interning), so structural equality is id equality and sharing is
free. The surface syntax is ASCII (`~ & | ->`) with the Unicode
connectives accepted as input aliases.
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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

# The atom-name syntax: a name is a full match, and the tokenizer reads atoms by it.
ATOM_NAME = re.compile(r"[a-z][a-z0-9_]*")

_store_tags = itertools.count(1)
_id_index = attrgetter("index")


class FormulaId(NamedTuple):
    """Opaque handle into a FormulaStore. Equal iff same store and structure.

    As a NamedTuple it hashes and compares in C, and it also compares equal
    to a plain `(index, store_tag)` tuple.
    """

    index: int
    store_tag: int


# The node classes are NamedTuples that equal, and hash like, only a node
# of their own class: as plain tuples `And(a, b)`, `Or(a, b)` and `(a, b)`
# would all be equal.


def _node_eq(self, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _node_ne(self, other: object) -> bool:
    return not _node_eq(self, other)


def _node_hash(self) -> int:
    return hash((type(self), tuple.__hash__(self)))


class Atom(NamedTuple):
    name: str
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class Not(NamedTuple):
    child: FormulaId
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class And(NamedTuple):
    left: FormulaId
    right: FormulaId
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class Or(NamedTuple):
    left: FormulaId
    right: FormulaId
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class Implies(NamedTuple):
    antecedent: FormulaId
    consequent: FormulaId
    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


Formula = Atom | Not | And | Or | Implies

# Node kinds, the values of a store's `kinds` column.
ATOM, NOT, AND, OR, IMPLIES = range(5)
_NODE_TYPES = (Atom, Not, And, Or, Implies)  # indexed by kind


class FormulaStore:
    """Append-only interning arena. Ids never change meaning once issued.

    A formula is an index into four index-aligned int columns: `_kinds`
    (ATOM, NOT, AND, OR or IMPLIES), `_lefts` (a negation's child, a binary
    node's left operand or antecedent), `_rights` (a binary node's right
    operand or consequent) and `_sizes`. Both child columns hold -1 where a
    node has no such child; an atom's name is kept by index. No node
    object is stored: `node` builds one on demand. Hash-consing goes
    through one lookup table per kind, from the atom name, the child
    index, or `left << 32 | right` over the child indices, to the node's
    index. That key is unique while every index is below 2**32; a store of
    2**32 nodes would need hundreds of GB, so the bound is never reached.
    `_add` is the one place a node is appended, with its key. Every
    interning path looks the key up first and calls `_add` only on a
    miss: `_atom`, `_neg` and `_intern_binary` (behind the constructors,
    the parser, LEM seeding and `apply_rule`), and saturation's AND_INTRO
    and OR_INTRO joins, which look their keys up in place.

    Children always precede parents: a node is interned only after its
    children, so every child index is below its parent's. This invariant
    is load-bearing. `render`, the oracle's truth masks and the parser all
    walk formulas in ascending index order or on an explicit stack instead
    of recursing, so no formula is too deep for them.

    The store is mutated only by interning (the constructors, `parse`,
    saturation, `apply_rule`) and by `render`, which fills an index-aligned
    text cache; the oracle also keeps a table per store (see
    `lemgap.oracle`). Queries such as `lbi_accepted`, `independent` and
    `check_proof` look nodes up without interning. It is not thread-safe.
    `f in store` is the one id predicate: `f` is a `FormulaId` (not a
    plain tuple) whose tag is an `int` equal to the store's and whose
    index is an `int` in `range(len(store))`. Every public entry that
    takes an id checks it by that predicate through `_index`, which
    raises `AssertionError` when it fails; many ids are read by
    `map(store._index, fs)`, which stops at the first bad one. The raise
    is explicit, so `python -O` keeps it. Two entries that ask whether an
    id was derived answer a non-id as not derived instead:
    `EnumerationResult.index_of` returns None and `extract_proof` raises
    `NotDerived`. Inside the package, saturation, the oracle and gap
    reports read the columns and intern over plain indices; an id from
    outside is checked once, where it enters, and ids the package built
    or a system checked when it was built are read, not checked again. A
    `FormulaId` is built only for what is handed back.
    """

    def __init__(self) -> None:
        self._tag = next(_store_tags)
        self._kinds: list[int] = []
        self._lefts: list[int] = []
        self._rights: list[int] = []
        self._sizes: list[int] = []
        self._names: dict[int, str] = {}  # atom index -> name
        self._texts: list[Optional[str]] = []  # render cache; None until rendered
        self._tables: tuple[dict, ...] = ({}, {}, {}, {}, {})  # indexed by kind

    def __len__(self) -> int:
        return len(self._kinds)

    def __contains__(self, f: object) -> bool:
        return type(f) is FormulaId and type(f.store_tag) is int and type(f.index) is int and (
            f.store_tag == self._tag and 0 <= f.index < len(self._kinds))

    def node(self, f: FormulaId) -> Formula:
        """The node of `f`, built from the columns."""
        i = self._index(f)
        kind = self._kinds[i]
        if kind == ATOM:
            return Atom(self._names[i])
        if kind == NOT:
            return Not(self._id(self._lefts[i]))
        return _NODE_TYPES[kind](self._id(self._lefts[i]), self._id(self._rights[i]))

    # tuple.__new__ over an (index, tag) pair builds a FormulaId in C, twice
    # as fast as calling the NamedTuple's Python-level __new__.

    def _id(self, i: int) -> FormulaId:
        """This store's id for index `i`."""
        return tuple.__new__(FormulaId, (i, self._tag))

    def _ids(self, indices: Iterable[int]) -> list[FormulaId]:
        """This store's ids for `indices`, in bulk."""
        pairs = zip(indices, itertools.repeat(self._tag))
        return list(map(tuple.__new__, itertools.repeat(FormulaId), pairs))

    def _add(self, kind: int, key: object, left: int, right: int, node_size: int) -> int:
        """Append a node that its kind's table does not hold under `key`,
        and return its index."""
        i = self._tables[kind][key] = len(self._kinds)
        self._kinds.append(kind)
        self._lefts.append(left)
        self._rights.append(right)
        self._sizes.append(node_size)
        return i

    def _atom(self, name: str) -> int:
        """Intern the atom `name`, which must be a valid atom name."""
        found = self._tables[ATOM].get(name)
        if found is None:
            found = self._add(ATOM, name, -1, -1, 1)
            self._names[found] = name
        return found

    def _neg(self, child: int) -> int:
        found = self._tables[NOT].get(child)
        if found is not None:
            return found
        return self._add(NOT, child, child, -1, 1 + self._sizes[child])

    def _intern_binary(self, kind: int, left: int, right: int) -> int:
        """Intern `kind(left, right)` over indices, without checking them."""
        key = left << 32 | right
        found = self._tables[kind].get(key)
        if found is not None:
            return found
        return self._add(kind, key, left, right, 1 + self._sizes[left] + self._sizes[right])

    def _lookup(self, kind: int, left: int, right: int = -1) -> Optional[int]:
        """Index of the negation of `left`, or of `kind(left, right)` for a
        binary kind; None when it was never interned. Interns nothing."""
        return self._tables[kind].get(left if kind == NOT else left << 32 | right)

    def _intern(self, kind: int, left: int, right: int = -1) -> int:
        """`_lookup` that interns: the index of the negation of `left`, or
        of `kind(left, right)` for a binary kind, interned if new."""
        return self._neg(left) if kind == NOT else self._intern_binary(kind, left, right)

    def _index(self, f: FormulaId) -> int:
        """The index of `f`; AssertionError unless `f in self`."""
        if f in self:
            return f.index
        raise AssertionError("FormulaId is not an id of this store")

    def atom(self, name: str) -> FormulaId:
        if not ATOM_NAME.fullmatch(name):
            raise ValueError(f"invalid atom name {name!r}")
        return self._id(self._atom(name))

    def neg(self, f: FormulaId) -> FormulaId:
        return self._id(self._neg(self._index(f)))

    def _binary(self, kind: int, left: FormulaId, right: FormulaId) -> FormulaId:
        return self._id(self._intern_binary(kind, self._index(left), self._index(right)))

    def conj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        return self._binary(AND, left, right)

    def disj(self, left: FormulaId, right: FormulaId) -> FormulaId:
        return self._binary(OR, left, right)

    def impl(self, antecedent: FormulaId, consequent: FormulaId) -> FormulaId:
        return self._binary(IMPLIES, antecedent, consequent)


def size(f: FormulaId, store: FormulaStore) -> int:
    """AST node count: atoms count 1, each connective 1 plus its children."""
    return store._sizes[store._index(f)]


def _closure(indices: Iterable[int], store: FormulaStore) -> set[int]:
    """Indices of all subformulas of the indexed formulas, themselves included."""
    kinds, lefts, rights = store._kinds, store._lefts, store._rights
    out: set[int] = set()
    stack = list(indices)
    while stack:
        i = stack.pop()
        if i in out:
            continue
        out.add(i)
        kind = kinds[i]
        if kind == NOT:
            stack.append(lefts[i])
        elif kind != ATOM:
            stack += (lefts[i], rights[i])
    return out


def _atom_names(indices: Iterable[int], store: FormulaStore) -> set[str]:
    """Names of the atoms occurring in the indexed formulas, found by one
    `_closure` over them all."""
    names = store._names
    return set(map(names.__getitem__, _closure(indices, store).intersection(names)))


def atoms_of(f: FormulaId, store: FormulaStore) -> tuple[str, ...]:
    """Sorted distinct atom names occurring in f."""
    return tuple(sorted(_atom_names((store._index(f),), store)))


def subformula_closure(fs: Iterable[FormulaId], store: FormulaStore) -> frozenset[FormulaId]:
    """All subformulas of the inputs, the inputs included."""
    return frozenset(store._ids(_closure(map(store._index, fs), store)))


def _kinds_of(fs: Iterable[int], store: FormulaStore) -> bytes:
    """The kind of each formula of `fs`, one byte each, read in one C-level
    pass; `count` and `find` on it then skip what a rule does not look for
    (S9 has 3 implications among 110,747 theorems) without a Python loop."""
    return bytes(map(store._kinds.__getitem__, fs))


def _positions(kind: int, kinds: bytes, offset: int = 0) -> list[int]:
    """Ascending positions, plus `offset`, of `kind` in a `_kinds_of` string."""
    positions = []
    k = kinds.find(kind)
    while k >= 0:
        positions.append(offset + k)
        k = kinds.find(kind, k + 1)
    return positions


def _lbi_shapes(
    fs: Sequence[int], implications: Iterable[int], store: FormulaStore
) -> Iterator[tuple[int, int, int]]:
    """(position, pivot, conclusion) for each of the given positions of
    implications in `fs` whose formula reads `(x | ~x) -> y` or
    `(~x | x) -> y`."""
    kinds, lefts, rights = store._kinds, store._lefts, store._rights
    for position in implications:
        f = fs[position]
        ant = lefts[f]
        if kinds[ant] != OR:
            continue
        left, right = lefts[ant], rights[ant]
        if kinds[right] == NOT and lefts[right] == left:
            yield position, left, rights[f]
        elif kinds[left] == NOT and lefts[left] == right:
            yield position, right, rights[f]


def _case_splits(
    fs: Sequence[int], implications: Iterable[int], position: Mapping[int, int], store: FormulaStore
) -> Iterator[tuple[int, int]]:
    """(i, j) for each pair of formulas of `fs` reading `x -> y` at i and
    `~x -> y` at j, where i or j is one of the given positions of
    implications; a pair whose positions are both given comes twice.

    `position` maps formulas to their positions in `fs`. The partner is
    looked up in the store's hash-consing tables, so a partner that was
    never interned cannot be a formula of `fs`, and nothing is interned.
    """
    kinds, lefts, rights, lookup = store._kinds, store._lefts, store._rights, store._lookup
    for k in implications:
        f = fs[k]
        ant, consequent = lefts[f], rights[f]
        # fs[k] as the x -> y premise.
        neg = lookup(NOT, ant)
        if neg is not None:
            j = position.get(lookup(IMPLIES, neg, consequent))
            if j is not None:
                yield k, j
        # fs[k] as the ~x -> y premise.
        if kinds[ant] == NOT:
            i = position.get(lookup(IMPLIES, lefts[ant], consequent))
            if i is not None:
                yield i, k


def match_lbi_shape(f: FormulaId, store: FormulaStore) -> Optional[tuple[FormulaId, FormulaId]]:
    """Match `(x | ~x) -> y` or `(~x | x) -> y`; return (pivot, conclusion).

    Purely syntactic: the two disjuncts must be a formula and its literal
    negation, in either order. Deep equivalences (e.g. `~~x` vs `x`) do
    not match.
    """
    fs = (store._index(f),)
    implications = (0,) if store._kinds[fs[0]] == IMPLIES else ()
    shapes = _lbi_shapes(fs, implications, store)
    return next(((store._id(x), store._id(y)) for _, x, y in shapes), None)


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
_TOKEN = re.compile(rf"\s*({'|'.join(map(re.escape, _TOKEN_ALIASES))}|{ATOM_NAME.pattern}|)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, lexeme, character offset) triples, with a trailing
    'end'. A ParseError, raised here or through `_unexpected`, gives its
    offset in UTF-8 bytes: only then is the text before it encoded."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while True:
        m = _TOKEN.match(text, i)
        i = m.end()
        if not (lexeme := m.group(1)):
            break
        tokens.append((_TOKEN_ALIASES.get(lexeme, "atom"), lexeme, m.start(1)))
    if i < len(text):
        raise ParseError(f"unexpected character {text[i]!r}", len(text[:i].encode("utf-8")))
    tokens.append(("end", "", i))
    return tokens


_PRIMARY_EXPECTED = ("atom", "'('", "'~'")


def _unexpected(text: str, token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
    kind, lexeme, i = token
    what = "end of input" if kind == "end" else f"unexpected token {lexeme!r}"
    return ParseError(what, len(text[:i].encode("utf-8")), expected)


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
    pending: list[tuple[str, int]] = []  # marker or operator, left operand index
    pos = 0
    while True:
        # An operand: prefix markers stack up until an atom arrives.
        token = tokens[pos]
        pos += 1
        if token[0] in ("~", "("):
            pending.append((token[0], -1))
            continue
        if token[0] != "atom":
            raise _unexpected(text, token, _PRIMARY_EXPECTED)
        f = store._atom(token[1])  # the token pattern admits only atom names
        # Close every construct the operand completes, up to the next
        # binary operator, which is then pushed with f as its left operand.
        while True:
            while pending and pending[-1][0] == "~":
                pending.pop()
                f = store._neg(f)
            if pending and pending[-1][0] == "&":
                f = store._intern_binary(AND, pending.pop()[1], f)
            kind = tokens[pos][0]
            if kind == "&":
                break
            if pending and pending[-1][0] == "|":
                f = store._intern_binary(OR, pending.pop()[1], f)
            if kind in ("|", "->"):
                break
            while pending and pending[-1][0] == "->":
                f = store._intern_binary(IMPLIES, pending.pop()[1], f)
            if not pending:
                if kind != "end":
                    raise _unexpected(text, tokens[pos], ("'&'", "'|'", "'->'", "end of input"))
                return store._id(f)
            if kind != ")":  # the top of the stack is now a "(" marker
                raise _unexpected(text, tokens[pos], ("')'",))
            pending.pop()
            pos += 1
        pending.append((kind, f))
        pos += 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Binding strength used by the canonical renderer, by node kind. A child is
# parenthesized when its own level is below the level its slot demands.
_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4
_LEVELS = (_LEVEL_UNARY, _LEVEL_UNARY, _LEVEL_AND, _LEVEL_OR, _LEVEL_IMPLIES)
# By binary kind: infix text and the levels the left and right slots
# demand. The antecedent slot demands conjunction level, so or- and
# implication-antecedents are parenthesized: `(p | ~p) -> q`.
_INFIX = {
    AND: (" & ", _LEVEL_AND, _LEVEL_UNARY),
    OR: (" | ", _LEVEL_OR, _LEVEL_AND),
    IMPLIES: (" -> ", _LEVEL_AND, _LEVEL_IMPLIES),
}


def _render_ready(order: Iterable[int], store: FormulaStore) -> list[int]:
    """Render, in `order`, each node without text whose children have
    texts, and return the nodes without text whose children do not. This
    is the one definition of a node's text. The indices are not checked."""
    texts, names = store._texts, store._names
    kinds, lefts, rights = store._kinds, store._lefts, store._rights
    levels, infixes = _LEVELS, _INFIX
    waiting = []
    for i in order:
        if texts[i] is not None:
            continue
        kind = kinds[i]
        if kind == ATOM:
            texts[i] = names[i]
            continue
        left = lefts[i]
        left_text = texts[left]
        if kind == NOT:
            if left_text is None:
                waiting.append(i)
            elif levels[kinds[left]] < _LEVEL_UNARY:
                texts[i] = "~(" + left_text + ")"
            else:
                texts[i] = "~" + left_text
            continue
        right = rights[i]
        right_text = texts[right]
        if left_text is None or right_text is None:
            waiting.append(i)
            continue
        infix, left_level, right_level = infixes[kind]
        if levels[kinds[left]] < left_level:
            left_text = "(" + left_text + ")"
        if levels[kinds[right]] < right_level:
            right_text = "(" + right_text + ")"
        texts[i] = left_text + infix + right_text
    return waiting


def _fill_texts(indices: Iterable[int], store: FormulaStore) -> list[Optional[str]]:
    """Cache the text of every indexed formula and of its subformulas.

    Returns the store's index-aligned text cache, which holds None for a
    node that nothing has rendered yet. Nothing else is rendered: with
    shared subterms a node's text can be exponentially longer than the
    store, so unrelated nodes are never touched. The indices are not
    checked.

    A formula whose children already have texts, such as each saturation
    candidate, is rendered in one pass over `indices`. For the others,
    `_closure` gives their subformulas, which are then rendered in
    ascending index order, children before their parents; `_render_ready`
    skips those that have text already. `_sort_canonical` does not call
    it for a generation of one theorem, which it leaves to be rendered
    when it is first shown.
    """
    texts = store._texts
    texts.extend([None] * (len(store._kinds) - len(texts)))
    waiting = _render_ready(indices, store)
    _render_ready(sorted(_closure(waiting, store)), store)
    return texts


def _texts_of(indices: Sequence[int], store: FormulaStore) -> list[str]:
    """The texts of the indexed formulas, in order, rendered in one
    `_fill_texts` pass. The indices are not checked."""
    return list(map(_fill_texts(indices, store).__getitem__, indices))


def render(f: FormulaId, store: FormulaStore) -> str:
    """Canonical ASCII text. parse(render(f)) always re-interns to f.

    Caches the text of f and of its subformulas in the store, so each node
    only joins the cached texts of its children, which precede it.
    """
    i = store._index(f)
    if i < len(store._texts) and (text := store._texts[i]) is not None:
        return text
    return _fill_texts((i,), store)[i]


def _sort_canonical(indices: list[int], store: FormulaStore) -> None:
    """Sort formula indices in place by (size, text), the canonical order.

    Renders, and caches, only the indexed formulas and their subformulas;
    fewer than two indices are already sorted, and render nothing (a chain
    saturates one theorem per generation).
    """
    if len(indices) < 2:
        return
    texts = _fill_texts(indices, store)
    # A stable sort by size of the text-sorted list orders by (size, text)
    # without building a key tuple per formula.
    indices.sort(key=texts.__getitem__)
    indices.sort(key=store._sizes.__getitem__)


def canonical_order(fs: Iterable[FormulaId], store: FormulaStore) -> list[FormulaId]:
    """The formulas of `fs` sorted by (size, text), the canonical order.

    Renders, and caches, only the formulas of `fs` and their subformulas.
    """
    ordered = list(map(store._index, fs))
    _sort_canonical(ordered, store)
    return store._ids(ordered)
