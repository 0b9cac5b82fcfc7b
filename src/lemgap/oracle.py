"""Classical truth-table semantics: the ground truth the engine is judged by.

Everything here is exhaustive over assignments (bitmask evaluation, one bit
per assignment), deterministic, and capped at ATOM_LIMIT atoms. Truth
masks are computed in one ascending pass over store indices, children
before parents, so formula depth is not limited by recursion.

The store is not read-only here: `independent` interns `~x`. These calls
are not thread-safe; give each thread its own store.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, NamedTuple, Optional

from .formula import And, Atom, FormulaId, FormulaStore, Implies, Not, Or
from .formula import atoms_of, subformula_closure

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

    return _masks([f], atom_value, 1, store)[f.index] == 1


def _masks(
    formulas: Iterable[FormulaId],
    atom_mask: Callable[[str], int],
    full: int,
    store: FormulaStore,
) -> dict[int, int]:
    """Truth mask of every subformula of `formulas`, keyed by store index.

    Bit j of a mask is the formula's value in assignment j; `full` has
    every assignment's bit set. Walks the subformulas in ascending index
    order, so both children of a node are done before the node.
    """
    nodes = store.nodes
    masks: dict[int, int] = {}
    for g in sorted(subformula_closure(formulas, store)):
        match nodes[g.index]:
            case Atom(name):
                masks[g.index] = atom_mask(name)
            case Not(child):
                masks[g.index] = full ^ masks[child.index]
            case And(left, right):
                masks[g.index] = masks[left.index] & masks[right.index]
            case Or(left, right):
                masks[g.index] = masks[left.index] | masks[right.index]
            case Implies(antecedent, consequent):
                masks[g.index] = (full ^ masks[antecedent.index]) | masks[consequent.index]
    return masks


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


def _truth_table(
    formulas: tuple[FormulaId, ...], store: FormulaStore
) -> tuple[dict[str, int], int, dict[int, int]]:
    """Atom positions, the all-assignments mask and the subformula masks."""
    names = sorted({name for f in formulas for name in atoms_of(f, store)})
    if len(names) > ATOM_LIMIT:
        raise TooManyAtoms(len(names))
    positions = {name: i for i, name in enumerate(names)}
    n = len(names)
    full = (1 << (1 << n)) - 1
    masks = _masks(formulas, lambda name: _atom_mask(positions[name], n), full, store)
    return positions, full, masks


def classify(f: FormulaId, store: FormulaStore) -> Verdict:
    """Tautology, Contradiction, or Contingent, by exhausting assignments."""
    _, full, masks = _truth_table((f,), store)
    if masks[f.index] == full:
        return Verdict.TAUTOLOGY
    if masks[f.index] == 0:
        return Verdict.CONTRADICTION
    return Verdict.CONTINGENT


def entails(axioms: Iterable[FormulaId], f: FormulaId, store: FormulaStore) -> Entailment:
    """Does every assignment satisfying all axioms satisfy f?

    When the answer is no, the lowest-indexed violating assignment is
    returned as a countermodel (total over the combined atom set). An
    unsatisfiable axiom set entails everything.
    """
    axioms = tuple(axioms)
    positions, full, masks = _truth_table((*axioms, f), store)
    models = full
    for ax in axioms:
        models &= masks[ax.index]
    violations = models & (full ^ masks[f.index])
    if violations == 0:
        return Entailment(True, None)
    j = (violations & -violations).bit_length() - 1
    countermodel = {name: bool((j >> i) & 1) for name, i in positions.items()}
    return Entailment(False, countermodel)


def independent(axioms: Iterable[FormulaId], x: FormulaId, store: FormulaStore) -> bool:
    """Neither x nor ~x follows from the axioms.

    Vacuously false when the axioms are unsatisfiable (everything follows).
    """
    axioms = tuple(axioms)
    if entails(axioms, x, store).holds:
        return False
    return not entails(axioms, store.neg(x), store).holds
