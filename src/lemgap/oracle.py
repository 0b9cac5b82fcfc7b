"""Classical truth-table semantics: the ground truth the engine is judged by.

Everything here is exhaustive over assignments (bitmask evaluation, one bit
per assignment), deterministic, and capped at ATOM_LIMIT atoms.

A query takes two passes. The fold (`_fold`) walks the subformulas in
ascending order, children first, and settles each one as true in every
assignment, in none, or equal to one open subformula, by its children
alone: one the negation of the other (`x | ~x` is true, `x & ~x` false,
`x -> ~x` is `~x`), a settled child (`(x | ~x) -> y` is `y`, `x -> (y &
~y)` is `~x`), `x -> x`, or a negation of a settled child. These rules
live there alone. The evaluation pass (`_models`) then sees only the
open subformulas a requested formula still reads, each with plain
2**n-bit operations (one, or two for `->`). It works in post-order on an
explicit stack, so formula depth is not limited by recursion. Of an open
node's two operands, the one that needs more live masks is done first
(Sethi-Ullman labelling); each mask is dropped once its last reader has
read it, and a requested formula's mask is folded into the models of all
requested formulas as soon as it is finished. So a query's memory
follows the most masks live at once, not the formula's size: a
left-nested `&` of 4,096 atom occurrences over 20 atoms holds at most
two masks beside its 20 atom masks. The atoms the open subformulas read
are the formula's support; the atoms only a settled subformula reads are
not looked up. `evaluate` settles nothing, so it looks up every atom of
its formula, in the walk's order.

A table's atom mask is built the first time a walk reads the atom.
`entails` and `independent` keep, per store, the table of the last axiom
set they were asked about: the masks built so far, the models mask, the
all-assignments mask and the models' support. That is at most (n + 2) *
2**n bits for n atoms (about 2.9 MB at 20), and for the EQ1 family, whose
axioms `(x | ~x) -> q` all fold to `q`, one mask (`q`'s, which is also
the models mask) beside the all-assignments mask. A store's table is
dropped with the store.

Each query is folded first. When its support shares no atom with the
models' support, the answer factors: whether some model falsifies (or
satisfies) the query is whether the axioms have a model and some
assignment of the query's own support falsifies (satisfies) it. Its mask
is then taken over its support alone, and a settled query needs no mask
at all. Every other query is evaluated over the axioms' table, or, when
it has atoms the table lacks, over a one-off table of the axioms' and
its atoms together. An atom mask a query builds in the kept table
stays there; its other masks are not kept.

No query interns a formula; changing a store's table is the only
change they make. That table is not thread-safe; give each thread its
own store.
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .formula import AND, ATOM, IMPLIES, NOT, OR, FormulaId, FormulaStore, _atom_names, _closure

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

    return _models(_fold((store._index(f),), store, settle=False), atom_value, 1) == 1


# What `_fold` settles a subformula to when it holds in every assignment,
# or in none. Store indices are never negative.
_TRUE, _FALSE = -1, -2

# An open subformula's operation: (ATOM, name, None), (NOT, a, None), or
# (AND, a, b), (OR, a, b), (IMPLIES, a, b), over open subformulas a and b.
_Op = tuple[int, Union[int, str], Optional[int]]


class _Fold(NamedTuple):
    """The conjunction of some formulas, as `_models` evaluates it."""

    roots: tuple[int, ...]  # the open formulas conjoined; (_FALSE,) if one is false
    ops: dict[int, _Op]  # open subformula -> its operation
    need: dict[int, int]  # open subformula -> masks its evaluation holds at once
    readers: dict[int, int]  # read open subformula -> its open readers, plus one per root
    support: frozenset[str]  # the atoms the read open subformulas include


def _fold(indices: Iterable[int], store: FormulaStore, settle: bool = True) -> _Fold:
    """The indexed formulas' conjunction, settled where their shape decides it.

    One ascending pass over the subformulas (children before parents)
    settles each one from what its children were settled to:
    - a negation of a true child is false, and of a false one true;
    - `true & b` is b, `false & b` false, `a & true` a, `a & false` false;
    - `true | b` is true, `false | b` b, `a | true` true, `a | false` a;
    - `true -> b` is b, `false -> b` true, `a -> true` true, and `a ->
      false` is the open negation of a;
    - when one child is the open negation of the other: `a | ~a` is
      true, `a & ~a` false, `a -> ~a` is `~a` and `~a -> a` is a;
    - `a -> a` is true.
    Any other subformula stays open, with its connective over what its
    children were settled to. Each open one is labelled with the masks its
    evaluation holds at once: an atom 1, a negation what its operand
    holds, a binary node the larger of its operands', or one more when
    they are equal. With `settle` false, every subformula stays open, as
    its own connective over its own children.

    A descending pass from the requested formulas then finds the open
    subformulas the evaluation reaches, and counts each one's reads: one
    per reached operation that names it, plus one if a requested formula
    was settled to it. Their atoms are the support. A formula given
    twice, or two settled to the same open one, is evaluated once.
    """
    kinds, lefts, rights, names = store._kinds, store._lefts, store._rights, store._names
    indices = list(indices)
    closure = sorted(_closure(indices, store))
    same: dict[int, int] = {}  # subformula -> _TRUE, _FALSE or the open one it equals
    ops: dict[int, _Op] = {}
    need: dict[int, int] = {}
    for i in closure:
        kind = kinds[i]
        if kind == ATOM:
            same[i], ops[i], need[i] = i, (ATOM, names[i], None), 1
            continue
        a = same[lefts[i]]
        b = None if kind == NOT else same[rights[i]]
        op = (kind, a, b)
        if not settle:
            value = i
        elif kind == NOT:
            value = _FALSE if a == _TRUE else _TRUE if a == _FALSE else i
        elif a == _TRUE:
            value = _TRUE if kind == OR else b
        elif a == _FALSE:
            value = _FALSE if kind == AND else b if kind == OR else _TRUE
        elif b == _TRUE:
            value = a if kind == AND else _TRUE
        elif b == _FALSE:
            value = _FALSE if kind == AND else a if kind == OR else i
            op = (NOT, a, None)
        elif ops[a] == (NOT, b, None) or ops[b] == (NOT, a, None):
            value = _FALSE if kind == AND else _TRUE if kind == OR else b
        else:
            value = _TRUE if kind == IMPLIES and a == b else i
        same[i] = value
        if value == i:
            ops[i] = op
            if op[0] == NOT:
                need[i] = need[a]
            else:
                x, y = need[a], need[b]
                need[i] = x + 1 if x == y else max(x, y)

    roots = tuple(dict.fromkeys(same[i] for i in indices))
    roots = (_FALSE,) if _FALSE in roots else tuple(r for r in roots if r != _TRUE)
    readers = dict.fromkeys(roots, 1)
    support = []
    for i in reversed(closure):
        if i in readers:
            kind, a, b = ops[i]
            if kind == ATOM:
                support.append(a)
                continue
            readers[a] = readers.get(a, 0) + 1
            if b is not None:
                readers[b] = readers.get(b, 0) + 1
    return _Fold(roots, ops, need, readers, frozenset(support))


def _models(fold: _Fold, atom_mask: Callable[[str], int], full: int) -> int:
    """The truth mask of a fold's conjunction: bit j is set when it holds
    in assignment j. `full` has every assignment's bit set, and is the
    answer when no formula is open.

    Each root is evaluated in post-order on an explicit stack, the operand
    of larger need first, so the one mask it leaves waits through the
    cheaper operand. A mask is dropped after its last read. A root's own
    read comes when its evaluation ends (or at once, if an earlier one
    finished it), and folds its mask into the result; the first root's
    mask is taken as it is, so a one-root query makes no 2**n-bit AND. So
    memory follows the most masks live at once, not the formula's size.
    Atom masks come from `atom_mask`, once per atom read, and are not
    copied.
    """
    ops, need = fold.ops, fold.need
    readers = dict(fold.readers)
    masks: dict[int, int] = {}
    models = full

    def read(i: int) -> int:
        remaining = readers[i] - 1
        if remaining:
            readers[i] = remaining
            return masks[i]
        return masks.pop(i)

    for root in fold.roots:
        if root == _FALSE:
            return 0
        stack = [root]
        while stack:
            i = stack.pop()
            if i >= 0:
                if i in masks:
                    continue
                kind, a, b = ops[i]
                if kind == ATOM:
                    masks[i] = atom_mask(a)
                    continue
                stack.append(~i)  # evaluate i once its operands are done
                if kind == NOT:
                    stack.append(a)
                elif need[a] < need[b]:
                    stack += (a, b)
                else:
                    stack += (b, a)
                continue
            i = ~i
            kind, a, b = ops[i]
            if kind == NOT:
                masks[i] = full ^ read(a)
                continue
            a, b = read(a), read(b)
            masks[i] = a & b if kind == AND else a | b if kind == OR else (full ^ a) | b
        mask = read(root)
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
    """The models of some formulas over a fixed, sorted list of atoms."""

    axioms: tuple[FormulaId, ...]
    full: int  # every assignment's bit set
    position: dict[str, int]  # atom name -> its bit in an assignment's number, in bit order
    atom_masks: dict[str, int]  # atom name -> truth mask, for the atoms read so far
    models: int  # assignments satisfying every axiom
    support: frozenset[str]  # the atoms the models depend on (`_Fold.support`)


def _reader(position: dict[str, int], masks: dict[str, int]) -> Callable[[str], int]:
    """An atom's mask over the assignments of the atoms in `position`,
    built on its first read and kept in `masks`."""
    n = len(position)

    def atom_mask(name: str) -> int:
        mask = masks.get(name)
        if mask is None:
            mask = masks[name] = _atom_mask(position[name], n)
        return mask

    return atom_mask


def _table(axioms: tuple[FormulaId, ...], fold: _Fold, names: list[str]) -> _Table:
    """The models of `fold` over the sorted atom `names`."""
    position = {name: i for i, name in enumerate(names)}
    masks: dict[str, int] = {}
    full = (1 << (1 << len(names))) - 1
    models = _models(fold, _reader(position, masks), full)
    return _Table(axioms, full, position, masks, models, fold.support)


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
    return _table(axioms, _fold(indices[:len(axioms)], store), names)


def classify(f: FormulaId, store: FormulaStore) -> Verdict:
    """Tautology, Contradiction, or Contingent, by exhausting assignments."""
    table = _truth_table((f,), (), store)  # the models of f alone: its truth mask
    if table.models == table.full:
        return Verdict.TAUTOLOGY
    if table.models == 0:
        return Verdict.CONTRADICTION
    return Verdict.CONTINGENT


def _query(
    axioms: tuple[FormulaId, ...], f: FormulaId, store: FormulaStore
) -> tuple[_Table, _Table, list[str]]:
    """The axioms' table, f's table (whose models are f's mask), and the
    sorted names of all their atoms.

    Each store keeps the table of the axioms it was last asked about.
    Building a table checks its axioms. Axioms equal to a kept table's,
    but not the same tuple, are checked before it is reused: a plain
    tuple or a forged id can equal an id. The combined atoms are counted
    against ATOM_LIMIT before anything else is decided.

    f is folded first. When its support shares no atom with the models',
    f's table is over its support alone. Otherwise it shares the
    assignments, and the `position` dict, of the axioms' table: the kept
    one when f has no other atoms, else a one-off table over the combined
    atoms.
    """
    table = _tables.get(store)
    if table is None or table.axioms != axioms:
        try:
            table = _tables[store] = _truth_table(axioms, (), store)
        except TooManyAtoms:
            table = None  # so are the combined atoms, counted below
    elif table.axioms is not axioms:
        list(map(store._index, axioms))
    index = store._index(f)
    atoms = _atom_names((index,), store)
    if table is None:
        atoms |= _atom_names(map(store._index, axioms), store)
    else:
        atoms |= table.position.keys()
    if len(atoms) > ATOM_LIMIT:
        raise TooManyAtoms(len(atoms))
    names = sorted(atoms)
    fold = _fold((index,), store)
    if fold.support.isdisjoint(table.support):
        return table, _table((f,), fold, sorted(fold.support)), names
    if len(names) > len(table.position):
        table = _truth_table(axioms, (f,), store)
    mask = _models(fold, _reader(table.position, table.atom_masks), table.full)
    return table, table._replace(axioms=(f,), models=mask, support=fold.support), names


def _true_atoms(mask: int, table: _Table) -> set[str]:
    """The atoms true in the table's lowest assignment in a nonzero mask."""
    j = (mask & -mask).bit_length() - 1
    return {name for name, i in table.position.items() if j >> i & 1}


def entails(axioms: Iterable[FormulaId], f: FormulaId, store: FormulaStore) -> Entailment:
    """Does every assignment satisfying all axioms satisfy f?

    When the answer is no, the lowest-indexed violating assignment is
    returned as a countermodel (total over the combined atom set). An
    unsatisfiable axiom set entails everything.
    """
    table, query, names = _query(tuple(axioms), f, store)
    if query.position is table.position:
        violations = table.models & (table.full ^ query.models)
        if violations == 0:
            return Entailment(True, None)
        true = _true_atoms(violations, table)
    else:
        if table.models == 0 or query.models == query.full:
            return Entailment(True, None)
        # The models and f read disjoint atoms, so the lowest violating
        # assignment is the lowest model's bits with f's lowest falsifying
        # assignment's bits, every other atom false.
        true = _true_atoms(table.models, table) | _true_atoms(query.full ^ query.models, query)
    return Entailment(False, {name: name in true for name in names})


def independent(axioms: Iterable[FormulaId], x: FormulaId, store: FormulaStore) -> bool:
    """Neither x nor ~x follows from the axioms.

    Vacuously false when the axioms are unsatisfiable (everything follows).
    One mask of x answers both: some model falsifies x, and some satisfies it.
    """
    table, query, _ = _query(tuple(axioms), x, store)
    models, mask = table.models, query.models
    if query.position is table.position:
        return models & (table.full ^ mask) != 0 and models & mask != 0
    return models != 0 and 0 != mask != query.full
