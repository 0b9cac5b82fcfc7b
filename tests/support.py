"""Shared test helpers: independent oracles and random generators.

The closure and entailment helpers here deliberately avoid the library's
saturation/bitmask code paths: they recompute everything from scratch each
round with direct pattern logic, so they can serve as ground truth.
"""

from __future__ import annotations

import functools
import itertools
import random

from lemgap.engine import AxiomaticSystem, Bounds, RuleKind
from lemgap.formula import (
    And,
    Atom,
    FormulaId,
    FormulaStore,
    Implies,
    Not,
    Or,
    atoms_of,
    size,
    subformula_closure,
)


def truth_value(f: FormulaId, assignment: dict[str, bool], store: FormulaStore) -> bool:
    """f's value under the assignment, read from the node objects. Each
    subformula is evaluated once, so a formula sharing subformulas costs
    its distinct nodes, not its tree."""

    @functools.cache
    def value(g: FormulaId) -> bool:
        node = store.node(g)
        if isinstance(node, Atom):
            return assignment[node.name]
        if isinstance(node, Not):
            return not value(node.child)
        if isinstance(node, And):
            return value(node.left) and value(node.right)
        if isinstance(node, Or):
            return value(node.left) or value(node.right)
        assert isinstance(node, Implies)
        return (not value(node.antecedent)) or value(node.consequent)

    return value(f)


def assignments_over(names: list[str]):
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def brute_force_entails(
    axioms: tuple[FormulaId, ...], goal: FormulaId, store: FormulaStore
) -> bool:
    names = sorted({n for f in (*axioms, goal) for n in atoms_of(f, store)})
    for assignment in assignments_over(names):
        if all(truth_value(ax, assignment, store) for ax in axioms) and not truth_value(
            goal, assignment, store
        ):
            return False
    return True


def naive_closure(system: AxiomaticSystem) -> frozenset[FormulaId]:
    """Brute-force least fixpoint: re-apply all rules to all tuples until
    nothing new appears. No generations, no ordering, no delta tracking."""
    store = system.store
    max_size = system.bounds.max_formula_size
    universe = subformula_closure((*system.axioms, *system.side_formulas), store)
    rules = system.rules

    current: set[FormulaId] = set(system.axioms)
    if RuleKind.LEM_AXIOM in rules:
        for x in universe:
            instance = store.disj(x, store.neg(x))
            if size(instance, store) <= max_size:
                current.add(instance)

    while True:
        found: set[FormulaId] = set()
        implications = [f for f in current if isinstance(store.node(f), Implies)]

        if RuleKind.MP in rules:
            for imp in implications:
                node = store.node(imp)
                if node.antecedent in current:
                    found.add(node.consequent)

        if RuleKind.AND_INTRO in rules:
            by_size: dict[int, list[FormulaId]] = {}
            for f in current:
                by_size.setdefault(size(f, store), []).append(f)
            for s1, bucket1 in by_size.items():
                for s2, bucket2 in by_size.items():
                    if s1 + s2 + 1 > max_size:
                        continue
                    for f in bucket1:
                        for g in bucket2:
                            found.add(store.conj(f, g))

        if RuleKind.AND_ELIM_L in rules:
            for f in current:
                node = store.node(f)
                if isinstance(node, And):
                    found.add(node.left)

        if RuleKind.AND_ELIM_R in rules:
            for f in current:
                node = store.node(f)
                if isinstance(node, And):
                    found.add(node.right)

        if RuleKind.OR_INTRO in rules:
            for f in current:
                for sigma in universe:
                    if size(f, store) + size(sigma, store) + 1 > max_size:
                        continue
                    found.add(store.disj(f, sigma))
                    found.add(store.disj(sigma, f))

        if RuleKind.LBI_RULE in rules:
            for f in current:
                node = store.node(f)
                if not isinstance(node, Implies):
                    continue
                ant = store.node(node.antecedent)
                if not isinstance(ant, Or):
                    continue
                left, right = store.node(ant.left), store.node(ant.right)
                if (isinstance(right, Not) and right.child == ant.left) or (
                    isinstance(left, Not) and left.child == ant.right
                ):
                    found.add(node.consequent)

        if RuleKind.CASE_SPLIT in rules:
            for imp in implications:
                node = store.node(imp)
                partner = store.impl(store.neg(node.antecedent), node.consequent)
                if partner in current:
                    found.add(node.consequent)

        found = {f for f in found if size(f, store) <= max_size}
        new = found - current
        if not new:
            return frozenset(current)
        current |= new


def random_formula(
    rng: random.Random,
    atoms: tuple[str, ...],
    target_size: int,
    store: FormulaStore,
    near_misses: bool = False,
) -> FormulaId:
    """A random formula of the target size. With `near_misses`, half the
    disjunctions that can read `~x | y` do: a near miss of the LBI
    antecedent `~x | x`, or that antecedent when y is x."""
    if target_size <= 1:
        return store.atom(rng.choice(atoms))
    if target_size == 2:
        return store.neg(random_formula(rng, atoms, 1, store))
    kind = rng.choice(("not", "and", "or", "implies"))
    if kind == "not":
        return store.neg(random_formula(rng, atoms, target_size - 1, store, near_misses))
    left_size = rng.randint(1, target_size - 2)
    if near_misses and kind == "or" and left_size > 1 and rng.random() < 0.5:
        left = store.neg(random_formula(rng, atoms, left_size - 1, store, near_misses))
    else:
        left = random_formula(rng, atoms, left_size, store, near_misses)
    right = random_formula(rng, atoms, target_size - 1 - left_size, store, near_misses)
    if kind == "and":
        return store.conj(left, right)
    if kind == "or":
        return store.disj(left, right)
    return store.impl(left, right)


BASE_RULE_POOL = (
    RuleKind.MP,
    RuleKind.AND_INTRO,
    RuleKind.AND_ELIM_L,
    RuleKind.AND_ELIM_R,
    RuleKind.OR_INTRO,
    RuleKind.LEM_AXIOM,
)


def random_system(
    rng: random.Random, extra_rules: frozenset[RuleKind] = frozenset()
) -> AxiomaticSystem:
    """Random desk-scale system: <= 3 atoms, <= 3 axioms of size <= 6,
    with near misses of `~x | x` (see `random_formula`), rules drawn from
    the base pool, max_formula_size <= 7. Size 6 admits an LBI axiom
    `(~x | x) -> y` over atoms, and its near misses."""
    atoms = ("a", "b", "c")[: rng.randint(1, 3)]
    store = FormulaStore()
    axioms = tuple(
        random_formula(rng, atoms, rng.randint(1, 6), store, near_misses=True)
        for _ in range(rng.randint(0, 3))
    )
    rules = {r for r in BASE_RULE_POOL if rng.random() < 0.5} | set(extra_rules)
    min_size = max((size(ax, store) for ax in axioms), default=1)
    max_size = max(rng.randint(4, 7), min_size)
    return AxiomaticSystem(
        store=store,
        atoms=atoms,
        axioms=axioms,
        rules=frozenset(rules),
        bounds=Bounds(max_formula_size=max_size),
    )
