"""Classical truth-table semantics: the ground truth the engine is judged by.

Everything here is exhaustive over assignments (bitmask evaluation, one bit
per assignment), deterministic, and capped at ATOM_LIMIT atoms. Truth
masks are computed in post-order on an explicit stack, so formula depth
is not limited by recursion. Of a node's two children, the one that needs
more live masks is done first (Sethi-Ullman labelling); each mask is
dropped once its last reader has read it, and a requested formula's mask
is folded into the models of all requested formulas as soon as it is
finished. So a query's memory follows the most masks live at once, not
the formula's size: a left-nested `&` of 4,096 atom occurrences over 20
atoms holds at most two masks beside its 20 atom masks.

A binary node is settled without a 2**n-bit operation when its children
decide it: when one child is the other's negation (`x | ~x` is every
assignment, `x & ~x` none, `x -> ~x` is `~x`), when a child holds in
every assignment (the `full` mask itself) or in none, or for `x -> x`;
so is a negation of `full` or of 0. The node then takes `full`, 0 or a
child's mask object as it is, so a settled node can settle its parents
too. So the axiom `(x | ~x) -> y` costs the one operation of `~x`, and
so does `~(x & ~x) -> y`. Both children are still evaluated: the
readers, the memory bound and `evaluate`'s totality are those of the
plain walk.

`entails` and `independent` keep, per store, the table of the last axiom
set they were asked about: one truth mask per axiom atom, the models mask
and the all-assignments mask, (n + 2) * 2**n bits for n atoms (about
2.9 MB at 20). A store's table is dropped with the store. Each query's
own masks are not kept.

No query interns a formula; replacing a store's table is the only
change they make. That table is not thread-safe; give each thread its
own store.
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, Iterable, NamedTuple, Optional

from .formula import AND, ATOM, NOT, OR, FormulaId, FormulaStore, _atom_names, _closure

__all__ = [
    "ATOM_LIMIT",
    "Assignment",
    "Verdict",
    "MissingAtom",
    "TooManyAtoms",
    "Entailment",
    "evaluate",
    "classify",
    "entails",
    "independent",
]

ATOM_LIMIT = 20

Assignment = dict[str, bool]


class Verdict(enum.Enum):
    TAUTOLOGY = "Tautology"
    CONTRADICTION = "Contradiction"
    CONTINGENT = "Contingent"


class MissingAtom(Exception):
    """The assignment is not total over the formula's atoms."""

    def __init__(self, name: str):
        super().__init__(f"assignment missing atom {name!r}")
        self.name = name


class TooManyAtoms(Exception):
    """The exhaustive oracle is capped at ATOM_LIMIT atoms by design."""

    def __init__(self, count: int):
        super().__init__(f"{count} atoms exceed the oracle limit of {ATOM_LIMIT}")
        self.count = count


class Entailment(NamedTuple):
    holds: bool
    countermodel: Optional[Assignment]


def evaluate(f: FormulaId, assignment: Assignment, store: FormulaStore) -> bool:
    """Truth value of f under a total assignment; `->` is material.

    The one-row truth table: every atom of f must be assigned, even where
    a connective would short-circuit past it.
    """

    def atom_value(name: str) -> int:
        try:
            return int(bool(assignment[name]))
        except KeyError:
            raise MissingAtom(name) from None

    return _models((store._index(f),), atom_value, 1, store) == 1


def _models(
    indices: Iterable[int],
    atom_mask: Callable[[str], int],
    full: int,
    store: FormulaStore,
) -> int:
    """The truth mask of the conjunction of the indexed formulas: bit j is
    set when every one of them holds in assignment j. `full` has every
    assignment's bit set, and is the answer when no formula is given. A
    formula given twice is evaluated once.

    One ascending pass over the subformulas (children before parents)
    counts each one's readers (its parents, plus one if it is requested)
    and labels it with the masks its evaluation needs live at once: an
    atom 1, a negation what its child needs, a binary node the larger of
    its children's needs, or one more when they are equal. Then each
    requested formula is evaluated in post-order on an explicit stack,
    the child of larger need first, so the one mask it leaves waits
    through the cheaper child. A mask is dropped after its last read. A
    requested formula's own read comes when its evaluation ends (or at
    once, if an earlier one finished it), and folds its mask into the
    result. So memory follows the most masks live at once, not the
    formula's size. Atom masks come from `atom_mask` and are not copied.

    A negation of `full` itself takes 0, and one of 0 takes `full`. A
    binary node whose children decide it takes no 2**n-bit operation:
    - one child the store's negation of the other: OR gives `full`, AND
      0, IMPLIES its right child's mask (`x -> ~x` is `~x`, `~x -> x` is
      `x`);
    - a child that is `full` itself, or 0: `full & b` is b, `full | b`
      `full`, `0 | b` b, `full -> b` b, `0 -> b` and `a -> full` `full`
      (AND with 0 is cheap on its own);
    - `x -> x` is `full`.
    The mask taken is the child's own object, or `full` itself, so a
    settled node can settle its parents, and the fold skips a root's
    mask that is `full` or the models so far. Both children are still
    read, so every atom is still looked up.
    """
    kinds, lefts, rights, names = store._kinds, store._lefts, store._rights, store._names
    roots = list(dict.fromkeys(indices))
    readers: dict[int, int] = {}
    need: dict[int, int] = {}
    for i in sorted(_closure(roots, store)):
        readers[i] = 0
        kind = kinds[i]
        if kind == ATOM:
            need[i] = 1
        elif kind == NOT:
            readers[lefts[i]] += 1
            need[i] = need[lefts[i]]
        else:
            left, right = lefts[i], rights[i]
            readers[left] += 1
            readers[right] += 1
            a, b = need[left], need[right]
            need[i] = a + 1 if a == b else max(a, b)
    for i in roots:
        readers[i] += 1

    masks: dict[int, int] = {}
    models = full

    def read(i: int) -> int:
        remaining = readers[i] - 1
        if remaining:
            readers[i] = remaining
            return masks[i]
        return masks.pop(i)

    for root in roots:
        stack = [root]
        while stack:
            i = stack.pop()
            if i >= 0:
                if i in masks:
                    continue
                kind = kinds[i]
                if kind == ATOM:
                    masks[i] = atom_mask(names[i])
                    continue
                stack.append(~i)  # evaluate i once its children are done
                if kind == NOT:
                    stack.append(lefts[i])
                elif need[lefts[i]] < need[rights[i]]:
                    stack += (lefts[i], rights[i])
                else:
                    stack += (rights[i], lefts[i])
                continue
            i = ~i
            kind = kinds[i]
            if kind == NOT:
                a = read(lefts[i])
                masks[i] = 0 if a is full else full if not a else full ^ a
                continue
            x, y = lefts[i], rights[i]
            a, b = read(x), read(y)
            if kinds[y] == NOT and lefts[y] == x or kinds[x] == NOT and lefts[x] == y:
                masks[i] = 0 if kind == AND else full if kind == OR else b  # x -> ~x is ~x
            elif kind == AND:
                masks[i] = b if a is full else a if b is full else a & b
            elif kind == OR:
                masks[i] = full if a is full or b is full else b if not a else a if not b else a | b
            else:
                masks[i] = (b if a is full else full if not a or b is full or x == y
                            else (full ^ a) | b)
        # Every mask lies within `full`, so the first root's mask is taken
        # as it is: a one-root query makes no 2**n-bit AND.
        mask = read(root)
        if mask is not models and mask is not full:
            models = mask if models is full else models & mask
    return models


def _atom_mask(position: int, n_atoms: int) -> int:
    # Bit j of the mask is the atom's value in assignment j, where bit
    # `position` of j encodes this atom. Built by repeated doubling.
    period = 1 << position
    mask = ((1 << period) - 1) << period
    width = 2 * period
    total = 1 << n_atoms
    while width < total:
        mask |= mask << width
        width *= 2
    return mask


class _Table(NamedTuple):
    """The axiom side of a truth table over a fixed list of atoms."""

    axioms: tuple[FormulaId, ...]
    full: int  # every assignment's bit set
    atom_masks: dict[str, int]  # atom name -> truth mask, in bit-position order
    models: int  # assignments satisfying every axiom


# The last axiom table each store was asked about. A store's table goes
# when the store does; the table holds no reference to its store.
_tables: weakref.WeakKeyDictionary[FormulaStore, _Table] = weakref.WeakKeyDictionary()


def _truth_table(
    axioms: tuple[FormulaId, ...], extra: tuple[FormulaId, ...], store: FormulaStore
) -> _Table:
    """The axioms' table over their atoms and those of `extra`."""
    indices = list(map(store._index, (*axioms, *extra)))
    names = sorted(_atom_names(indices, store))
    if len(names) > ATOM_LIMIT:
        raise TooManyAtoms(len(names))
    n = len(names)
    full = (1 << (1 << n)) - 1
    atom_masks = {name: _atom_mask(i, n) for i, name in enumerate(names)}
    models = _models(indices[:len(axioms)], atom_masks.__getitem__, full, store)
    return _Table(axioms, full, atom_masks, models)


def classify(f: FormulaId, store: FormulaStore) -> Verdict:
    """Tautology, Contradiction, or Contingent, by exhausting assignments."""
    table = _truth_table((f,), (), store)  # the models of f alone: its truth mask
    if table.models == table.full:
        return Verdict.TAUTOLOGY
    if table.models == 0:
        return Verdict.CONTRADICTION
    return Verdict.CONTINGENT


def _query(axioms: tuple[FormulaId, ...], f: FormulaId, store: FormulaStore) -> tuple[_Table, int]:
    """A table of the axioms' models over all of f's atoms, and f's mask.

    Each store keeps the table of the axioms it was last asked about, so
    a query within their atoms evaluates only f's subformulas. A query
    with other atoms gets a one-off table over the combined set. Building
    a table checks its axioms. Axioms equal to a kept table's, but not
    the same tuple, are checked before it is reused: a plain tuple or a
    forged id can equal an id.
    """
    table = _tables.get(store)
    if table is None or table.axioms != axioms:
        try:
            table = _tables[store] = _truth_table(axioms, (), store)
        except TooManyAtoms:
            table = None  # the combined table below raises with the full count
    elif table.axioms is not axioms:
        list(map(store._index, axioms))
    if table is None or not table.atom_masks.keys() >= _atom_names((store._index(f),), store):
        table = _truth_table(axioms, (f,), store)
    return table, _models((f.index,), table.atom_masks.__getitem__, table.full, store)


def entails(axioms: Iterable[FormulaId], f: FormulaId, store: FormulaStore) -> Entailment:
    """Does every assignment satisfying all axioms satisfy f?

    When the answer is no, the lowest-indexed violating assignment is
    returned as a countermodel (total over the combined atom set). An
    unsatisfiable axiom set entails everything.
    """
    table, mask = _query(tuple(axioms), f, store)
    violations = table.models & (table.full ^ mask)
    if violations == 0:
        return Entailment(True, None)
    j = (violations & -violations).bit_length() - 1
    countermodel = {name: bool((j >> i) & 1) for i, name in enumerate(table.atom_masks)}
    return Entailment(False, countermodel)


def independent(axioms: Iterable[FormulaId], x: FormulaId, store: FormulaStore) -> bool:
    """Neither x nor ~x follows from the axioms.

    Vacuously false when the axioms are unsatisfiable (everything follows).
    One mask of x answers both: some model falsifies x, and some satisfies it.
    """
    table, mask = _query(tuple(axioms), x, store)
    return table.models & (table.full ^ mask) != 0 and table.models & mask != 0
