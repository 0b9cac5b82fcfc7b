"""Axiomatic systems, the inference-rule catalog, and bottom-up saturation.

A system is a finite set of concrete axioms plus a set of enabled rules and
bounds. `saturate` runs generation-based forward chaining to a fixed point
(or a bound), recording a well-founded proof step for every theorem, in a
fully deterministic discovery order.
"""

from __future__ import annotations

import enum
import gc
import json
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .formula import (
    AND,
    ATOM_NAME,
    IMPLIES,
    OR,
    And,
    FormulaId,
    FormulaStore,
    Implies,
    Not,
    ParseError,
    _case_splits,
    _closure,
    _indices,
    _lbi_shapes,
    _positions,
    _sort_canonical,
    atoms_of,
    match_lbi_shape,
    parse,
    render,
    size,
)

__all__ = [
    "RuleKind",
    "Bounds",
    "AxiomaticSystem",
    "ProofStep",
    "Stats",
    "EnumerationResult",
    "ConfigError",
    "AxiomTooLarge",
    "ArityMismatch",
    "NotDerived",
    "InvalidStep",
    "load_system",
    "system_document",
    "apply_rule",
    "saturate",
    "extract_proof",
    "check_proof",
]


class RuleKind(enum.Enum):
    MP = "MP"                  # phi, phi -> psi  |-  psi
    AND_INTRO = "AND_INTRO"    # phi, psi  |-  phi & psi
    AND_ELIM_L = "AND_ELIM_L"  # phi & psi  |-  phi
    AND_ELIM_R = "AND_ELIM_R"  # phi & psi  |-  psi
    OR_INTRO = "OR_INTRO"      # phi  |-  phi | s and s | phi, s in the universe
    LEM_AXIOM = "LEM_AXIOM"    # schema: x | ~x for every x in the universe
    LBI_RULE = "LBI_RULE"      # (x | ~x) -> y  |-  y
    CASE_SPLIT = "CASE_SPLIT"  # x -> y, ~x -> y  |-  y


RULE_ARITY = {
    RuleKind.MP: 2,
    RuleKind.AND_INTRO: 2,
    RuleKind.AND_ELIM_L: 1,
    RuleKind.AND_ELIM_R: 1,
    RuleKind.OR_INTRO: 1,
    RuleKind.LEM_AXIOM: 0,
    RuleKind.LBI_RULE: 1,
    RuleKind.CASE_SPLIT: 2,
}


class ConfigError(Exception):
    """Invalid system document. `field` names the offending entry."""

    def __init__(self, field_name: str, reason: str):
        self.field = field_name
        self.reason = reason
        super().__init__(f"{field_name}: {reason}")


class AxiomTooLarge(ConfigError):
    pass


class ArityMismatch(Exception):
    def __init__(self, rule: RuleKind, got: int):
        super().__init__(f"{rule.value} takes {RULE_ARITY[rule]} premise(s), got {got}")


class NotDerived(Exception):
    """The goal is absent from the enumeration (says nothing semantic)."""


@dataclass(frozen=True, slots=True)
class Bounds:
    max_formula_size: int = 12
    max_generations: int = 50
    max_theorems: int = 100_000

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 1:
                raise ConfigError(f"bounds.{name}", "must be a positive integer")


@dataclass(frozen=True)
class AxiomaticSystem:
    """Concrete axioms + enabled rules + bounds, tied to one FormulaStore.

    The side-formula universe (what OR_INTRO and LEM_AXIOM range over) is
    the subformula closure of the axioms and any declared side formulas.
    """

    store: FormulaStore
    atoms: tuple[str, ...]
    axioms: tuple[FormulaId, ...]
    rules: frozenset[RuleKind]
    side_formulas: tuple[FormulaId, ...] = ()
    bounds: Bounds = field(default_factory=Bounds)

    def __post_init__(self) -> None:
        declared = set(self.atoms)
        for i, name in enumerate(self.atoms):
            if not ATOM_NAME.match(name):
                raise ConfigError(f"atoms[{i}]", f"invalid atom name {name!r}")
        if len(declared) != len(self.atoms):
            raise ConfigError("atoms", "duplicate atom names")
        for field_name, formulas, too_large in (
            ("axioms", self.axioms, AxiomTooLarge),
            ("side_formulas", self.side_formulas, ConfigError),
        ):
            for i, f in enumerate(formulas):
                for name in atoms_of(f, self.store):
                    if name not in declared:
                        raise ConfigError(f"{field_name}[{i}]", f"uses undeclared atom {name!r}")
                if size(f, self.store) > self.bounds.max_formula_size:
                    raise too_large(
                        f"{field_name}[{i}]",
                        f"size {size(f, self.store)} exceeds max_formula_size "
                        f"{self.bounds.max_formula_size}",
                    )

    def universe(self) -> tuple[FormulaId, ...]:
        """Side-formula universe: the subformula closure of the axioms and
        side formulas, in canonical (size, text) order."""
        store = self.store
        closure = list(_closure(_indices((*self.axioms, *self.side_formulas), store), store))
        _sort_canonical(closure, store)
        return tuple(store._ids(closure))

    def with_rules(self, rules: Iterable[RuleKind]) -> AxiomaticSystem:
        return replace(self, rules=frozenset(rules))


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One derivation: `rule` applied to earlier steps gives `conclusion`.

    `rule` is None for axioms. Premises are indices of earlier steps, so
    each premise is strictly smaller than the step's own position.
    """

    conclusion: FormulaId
    rule: Optional[RuleKind]
    premises: tuple[int, ...]

    @property
    def rule_name(self) -> str:
        return "AXIOM" if self.rule is None else self.rule.value


@dataclass(frozen=True, slots=True)
class Stats:
    """Saturation counters. `rule_applications` counts premise tuples that
    matched a rule's pattern (plus one per enabled zero-premise schema);
    `dedup_hits` counts in-bound conclusions that were already known."""

    generations_run: int
    fixed_point_reached: bool
    rule_applications: int
    dedup_hits: int


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Discovery-ordered theorem list with aligned proof steps and
    generation numbers. `stop_reason` is `fixed_point`, `max_generations`
    or `max_theorems`.

    A result keeps its run's store indices and (rule, premises) pairs.
    `theorems` and `steps` are built from them on first read, the steps
    replacing the pairs, so `gap_report`, which reads neither, builds no
    id or proof step. Results compare by theorems, steps, generations and
    stats.
    """

    generations: tuple[int, ...]
    stats: Stats
    stop_reason: str
    _store: FormulaStore = field(repr=False)
    _indices: tuple[int, ...] = field(repr=False)
    _pairs: Optional[list] = field(repr=False)

    @cached_property
    def theorems(self) -> tuple[FormulaId, ...]:
        return tuple(self._store._ids(self._indices))

    @cached_property
    def steps(self) -> tuple[ProofStep, ...]:
        steps, theorems = self._pairs, self.theorems
        for k, (rule, premises) in enumerate(steps):  # frees each pair it replaces
            steps[k] = ProofStep(theorems[k], rule, premises)
        object.__setattr__(self, "_pairs", None)
        return tuple(steps)

    def _key(self) -> tuple:
        return self.theorems, self.steps, self.generations, self.stats

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EnumerationResult) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def index_of(self, f: FormulaId) -> Optional[int]:
        if f.store_tag != self._store._tag:
            return None
        try:
            return self._indices.index(f.index)
        except ValueError:
            return None


# ---------------------------------------------------------------------------
# System documents (JSON)
# ---------------------------------------------------------------------------

_DOCUMENT_KEYS = {"atoms", "axioms", "rules", "side_formulas", "bounds"}
_BOUNDS_KEYS = tuple(f.name for f in fields(Bounds))


def _parse_formula_list(
    values: object, field_name: str, store: FormulaStore
) -> tuple[FormulaId, ...]:
    if not isinstance(values, list):
        raise ConfigError(field_name, "must be a list of formula strings")
    out = []
    for i, text in enumerate(values):
        if not isinstance(text, str):
            raise ConfigError(f"{field_name}[{i}]", "must be a formula string")
        try:
            out.append(parse(text, store))
        except ParseError as exc:
            raise ConfigError(f"{field_name}[{i}]", str(exc)) from exc
    return tuple(out)


def load_system(text: str) -> AxiomaticSystem:
    """Load and validate a JSON system document.

    Unknown keys are rejected. Defaults: rules {MP}; bounds 12 / 50 /
    100000; atoms inferred from the axioms and side formulas when omitted.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad text, too many digits, too deep
        raise ConfigError("document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("document", "top level must be an object")
    for key in doc:
        if key not in _DOCUMENT_KEYS:
            raise ConfigError(key, "unknown key")

    store = FormulaStore()
    axioms = _parse_formula_list(doc.get("axioms", []), "axioms", store)
    side = _parse_formula_list(doc.get("side_formulas", []), "side_formulas", store)

    rule_names = doc.get("rules", ["MP"])
    if not isinstance(rule_names, list):
        raise ConfigError("rules", "must be a list of rule names")
    rules = set()
    for i, name in enumerate(rule_names):
        try:
            rules.add(RuleKind(name))
        except ValueError:
            raise ConfigError(f"rules[{i}]", f"unknown rule {name!r}") from None

    bounds_doc = doc.get("bounds", {})
    if not isinstance(bounds_doc, dict):
        raise ConfigError("bounds", "must be an object")
    for key in bounds_doc:
        if key not in _BOUNDS_KEYS:
            raise ConfigError(f"bounds.{key}", "unknown key")
    bound_args = {}
    for key in _BOUNDS_KEYS:
        if key in bounds_doc:
            value = bounds_doc[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"bounds.{key}", "must be an integer")
            bound_args[key] = value
    bounds = Bounds(**bound_args)

    atoms_doc = doc.get("atoms")
    if atoms_doc is None:
        inferred: set[str] = set()
        for f in (*axioms, *side):
            inferred.update(atoms_of(f, store))
        atoms = tuple(sorted(inferred))
    else:
        if not isinstance(atoms_doc, list) or not all(isinstance(a, str) for a in atoms_doc):
            raise ConfigError("atoms", "must be a list of atom names")
        atoms = tuple(atoms_doc)

    return AxiomaticSystem(
        store=store,
        atoms=atoms,
        axioms=axioms,
        rules=frozenset(rules),
        side_formulas=side,
        bounds=bounds,
    )


def system_document(system: AxiomaticSystem) -> dict:
    """JSON-ready document that round-trips through load_system."""
    return {
        "atoms": list(system.atoms),
        "axioms": [render(f, system.store) for f in system.axioms],
        "rules": [r.value for r in RuleKind if r in system.rules],
        "side_formulas": [render(f, system.store) for f in system.side_formulas],
        "bounds": asdict(system.bounds),
    }


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def apply_rule(
    rule: RuleKind,
    premises: Sequence[FormulaId],
    store: FormulaStore,
    universe: Iterable[FormulaId] = (),
) -> frozenset[FormulaId]:
    """All conclusions of one rule application; empty when shapes mismatch.

    No size filtering happens here; bounding is the enumerator's job.
    OR_INTRO and LEM_AXIOM range over `universe`.
    """
    if len(premises) != RULE_ARITY[rule]:
        raise ArityMismatch(rule, len(premises))

    if rule is RuleKind.MP:
        phi, imp = premises
        node = store.node(imp)
        if isinstance(node, Implies) and node.antecedent == phi:
            return frozenset((node.consequent,))
        return frozenset()

    if rule is RuleKind.AND_INTRO:
        return frozenset((store.conj(premises[0], premises[1]),))

    if rule is RuleKind.AND_ELIM_L:
        node = store.node(premises[0])
        return frozenset((node.left,)) if isinstance(node, And) else frozenset()

    if rule is RuleKind.AND_ELIM_R:
        node = store.node(premises[0])
        return frozenset((node.right,)) if isinstance(node, And) else frozenset()

    if rule is RuleKind.OR_INTRO:
        phi = premises[0]
        out = set()
        for sigma in universe:
            out.add(store.disj(phi, sigma))
            out.add(store.disj(sigma, phi))
        return frozenset(out)

    if rule is RuleKind.LEM_AXIOM:
        return frozenset(store.disj(x, store.neg(x)) for x in universe)

    if rule is RuleKind.LBI_RULE:
        matched = match_lbi_shape(premises[0], store)
        return frozenset((matched[1],)) if matched else frozenset()

    if rule is RuleKind.CASE_SPLIT:
        first, second = premises
        n1 = store.node(first)
        n2 = store.node(second)
        if not (isinstance(n1, Implies) and isinstance(n2, Implies)):
            return frozenset()
        if n1.consequent != n2.consequent:
            return frozenset()
        ant2 = store.node(n2.antecedent)
        if isinstance(ant2, Not) and ant2.child == n1.antecedent:
            return frozenset((n1.consequent,))
        return frozenset()

    raise AssertionError(f"unhandled rule {rule!r}")


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class _Saturation:
    """One saturation run over formula indices. Every id it handles was
    issued by `system.store` (checked when the system was built), so the
    loops read the store's columns directly and intern without the
    checks. The result keeps the run's index columns; no id or proof step
    is built here.

    `admit_generation` finds the positions of each new generation's
    implications once; the rules that read implications take them from
    there. CASE_SPLIT finds its partner premise with `_case_splits`, the
    matcher `gap.lbi_accepted` uses too, by a lookup in the store's
    tables; `apply_rule` stays the independent definition that
    `check_proof` replays."""

    def __init__(self, system: AxiomaticSystem):
        self.system = system
        self.rules = system.rules
        self.store = store = system.store
        self.lefts, self.rights = store.lefts, store.rights
        self.sizes = store.sizes
        self.max_size = system.bounds.max_formula_size
        self.universe = [sigma.index for sigma in system.universe()]
        # Non-decreasing, because the universe is sorted by (size, text).
        self.universe_sizes = [self.sizes[sigma] for sigma in self.universe]
        self.theorems: list[int] = []
        self.steps: list[tuple[Optional[RuleKind], tuple[int, ...]]] = []  # (rule, premises)
        self.generations: list[int] = []
        self.position: dict[int, int] = {}
        # upto[b]: ascending positions of the theorems of size at most b, for
        # each AND_INTRO budget b up to the largest size seen, capped at
        # max_size - 2 (at least one list); upto[-1] holds every theorem of
        # a larger budget too. Kept only when AND_INTRO is enabled.
        self.upto: list[list[int]] = [[]] if RuleKind.AND_INTRO in self.rules else []
        self.impl_by_antecedent: dict[int, list[int]] = {}
        # Positions of the newest generation's implications, the premises
        # MP, LBI_RULE and CASE_SPLIT look for: found once, on admission.
        self.new_implications: list[int] = []
        self.applications = 0
        self.dedup_hits = 0
        self.truncated = False
        # Per-round scratch: conclusion -> (rule, premises) that first derived it.
        self.candidates: dict[int, tuple[Optional[RuleKind], tuple[int, ...]]] = {}

    def offer(self, conclusion: int, rule: Optional[RuleKind], premises: tuple[int, ...]) -> None:
        if self.sizes[conclusion] > self.max_size:
            return
        if conclusion in self.position or conclusion in self.candidates:
            self.dedup_hits += 1
            return
        self.candidates[conclusion] = (rule, premises)

    def admit_generation(self, gen: int) -> None:
        candidates = self.candidates
        self.candidates = {}
        ordered = list(candidates)
        _sort_canonical(ordered, self.store)
        room = self.system.bounds.max_theorems - len(self.theorems)
        if len(ordered) > room:
            self.truncated = True
            del ordered[room:]
        first = len(self.theorems)
        self.theorems += ordered
        self.steps += map(candidates.__getitem__, ordered)
        self.generations += [gen] * len(ordered)
        self.position.update(zip(ordered, range(first, len(self.theorems))))
        if self.upto and ordered:
            # `ordered` is sorted by size, so the theorems of size at most
            # b are a prefix of it.
            ordered_sizes = [self.sizes[f] for f in ordered]
            for _ in range(len(self.upto), min(ordered_sizes[-1], self.max_size - 2) + 1):
                self.upto.append(self.upto[-1].copy())
            for budget, bucket in enumerate(self.upto):
                bucket += range(first, first + bisect_right(ordered_sizes, budget))
        self.new_implications = list(_positions(IMPLIES, self.theorems, self.store, first))
        for j in self.new_implications:
            self.impl_by_antecedent.setdefault(self.lefts[self.theorems[j]], []).append(j)

    def seed(self) -> None:
        for ax in self.system.axioms:
            self.offer(ax.index, None, ())
        if RuleKind.LEM_AXIOM in self.rules:
            self.applications += 1
            store = self.store
            for x in self.universe:
                self.offer(store._intern_binary(OR, x, store._neg(x)), RuleKind.LEM_AXIOM, ())
        self.admit_generation(0)

    def round(self, delta: range) -> None:
        """Apply every enabled rule to every premise tuple touching `delta`,
        the newest generation: the tail of the theorem list."""
        rules = self.rules
        if RuleKind.MP in rules:
            self.run_mp(delta)
        if RuleKind.AND_INTRO in rules:
            self.run_and_intro(delta)
        if RuleKind.AND_ELIM_L in rules or RuleKind.AND_ELIM_R in rules:
            self.run_and_elim(delta)
        if RuleKind.OR_INTRO in rules:
            self.run_or_intro(delta)
        if RuleKind.LBI_RULE in rules:
            self.run_lbi(delta)
        if RuleKind.CASE_SPLIT in rules:
            self.run_case_split(delta)

    def run_mp(self, delta: range) -> None:
        theorems, position = self.theorems, self.position
        pairs = set()
        for j in self.new_implications:
            i = position.get(self.lefts[theorems[j]])
            if i is not None:
                pairs.add((i, j))
        # Each i in delta that is the antecedent of an implication j, found
        # from the smaller side: S9 has 3 antecedents against 100,000 new
        # theorems, a chain 2,000 against one.
        by_antecedent = self.impl_by_antecedent
        if len(by_antecedent) < len(delta):
            found = [(position.get(a), js) for a, js in by_antecedent.items()]
        else:
            found = [(i, by_antecedent.get(theorems[i], ())) for i in delta]
        for i, implications in found:
            if i is not None and i >= delta.start:
                pairs.update((i, j) for j in implications)
        for i, j in sorted(pairs):
            self.applications += 1
            self.offer(self.rights[theorems[j]], RuleKind.MP, (i, j))

    def run_and_intro(self, delta: range) -> None:
        # Every pair (i, j) with i or j in delta whose conjunction fits,
        # size(i) + size(j) < max_size, in ascending order: an i before delta
        # pairs with the delta theorems within its budget, an i in delta with
        # every theorem within it. Each conjunction fits, so the size check
        # of `offer` is skipped; its dedup check is inlined.
        theorems, sizes = self.theorems, self.sizes
        position, candidates = self.position, self.candidates
        intern = self.store._intern_binary
        start = delta.start
        in_delta = [bucket[bisect_left(bucket, start):] for bucket in self.upto]
        dedup_hits = 0
        for i in self.upto[-1]:
            left = theorems[i]
            budget = min(self.max_size - 1 - sizes[left], len(in_delta) - 1)
            partners = self.upto[budget] if i >= start else in_delta[budget]
            self.applications += len(partners)
            for j in partners:
                conclusion = intern(AND, left, theorems[j])
                if conclusion in position or conclusion in candidates:
                    dedup_hits += 1
                else:
                    candidates[conclusion] = (RuleKind.AND_INTRO, (i, j))
        self.dedup_hits += dedup_hits

    def run_and_elim(self, delta: range) -> None:
        elim_left = RuleKind.AND_ELIM_L in self.rules
        elim_right = RuleKind.AND_ELIM_R in self.rules
        for i in _positions(AND, self.theorems, self.store, delta.start):
            f = self.theorems[i]
            if elim_left:
                self.applications += 1
                self.offer(self.lefts[f], RuleKind.AND_ELIM_L, (i,))
            if elim_right:
                self.applications += 1
                self.offer(self.rights[f], RuleKind.AND_ELIM_R, (i,))

    def run_or_intro(self, delta: range) -> None:
        # Each disjunction fits the budget, so as in run_and_intro only the
        # dedup check of `offer` is done, inlined.
        theorems, sizes = self.theorems, self.sizes
        position, candidates = self.position, self.candidates
        intern = self.store._intern_binary
        dedup_hits = 0
        for i in delta:
            self.applications += 1
            phi = theorems[i]
            budget = self.max_size - 1 - sizes[phi]
            step = (RuleKind.OR_INTRO, (i,))
            for sigma, sigma_size in zip(self.universe, self.universe_sizes):
                if sigma_size > budget:
                    break
                for conclusion in (intern(OR, phi, sigma), intern(OR, sigma, phi)):
                    if conclusion in position or conclusion in candidates:
                        dedup_hits += 1
                    else:
                        candidates[conclusion] = step
        self.dedup_hits += dedup_hits

    def run_lbi(self, delta: range) -> None:
        for i, _, conclusion in _lbi_shapes(self.theorems, self.new_implications, self.store):
            self.applications += 1
            self.offer(conclusion, RuleKind.LBI_RULE, (i,))

    def run_case_split(self, delta: range) -> None:
        theorems = self.theorems
        pairs = _case_splits(theorems, self.new_implications, self.position, self.store)
        for i, j in sorted(set(pairs)):
            self.applications += 1
            self.offer(self.rights[theorems[i]], RuleKind.CASE_SPLIT, (i, j))

    def run(self) -> EnumerationResult:
        self.seed()
        rounds = 0
        gen_start = 0
        stop_reason = "max_theorems"
        while not self.truncated and len(self.theorems) < self.system.bounds.max_theorems:
            if rounds >= self.system.bounds.max_generations:
                stop_reason = "max_generations"
                break
            delta = range(gen_start, len(self.theorems))
            gen_start = len(self.theorems)
            self.round(delta)
            rounds += 1
            if not self.candidates:
                stop_reason = "fixed_point"
                break
            self.admit_generation(self.generations[-1] + 1 if self.theorems else 1)
        return EnumerationResult(
            generations=tuple(self.generations),
            stats=Stats(
                generations_run=rounds,
                fixed_point_reached=stop_reason == "fixed_point",
                rule_applications=self.applications,
                dedup_hits=self.dedup_hits,
            ),
            stop_reason=stop_reason,
            _store=self.store,
            _indices=tuple(self.theorems),
            _pairs=self.steps,
        )


def saturate(system: AxiomaticSystem) -> EnumerationResult:
    """Bottom-up enumeration of the system's theorems.

    Generation 0 holds the axioms (plus LEM_AXIOM instances when that
    schema is enabled); generation k+1 holds every conclusion of an
    enabled rule whose premise tuple touches generation k, kept when its
    size is within bounds and it was not already known. Within a
    generation theorems are ordered by (size, canonical text), which makes
    the discovery order, the proof steps, and the stats reproducible
    run-to-run. Stops at the fixed point or when a bound is exhausted
    (reported in `stop_reason` and stats, never an error).

    The result's ids and proof steps are built on first read of its
    `theorems` and `steps`; `gap_report` reads neither, so `gap` never
    builds a proof step.

    The cyclic garbage collector is paused during the run: a run makes
    no reference cycles, so a collection would only walk its growing
    heap. The collector's previous state is restored on return, and on
    an exception too; a collector the caller disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Saturation(system).run()
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Proof extraction and checking
# ---------------------------------------------------------------------------

def extract_proof(result: EnumerationResult, goal: FormulaId) -> tuple[ProofStep, ...]:
    """Minimal self-contained proof DAG for `goal`, topologically ordered.

    Premise indices are rewritten to positions within the returned tuple.
    Raises NotDerived when the goal never made it into the enumeration.
    Builds the proof's steps only, not the run's.
    """
    target = result.index_of(goal)
    if target is None:
        raise NotDerived("goal is not among the enumerated theorems")
    pairs = result._pairs
    if pairs is None:  # the run's steps were read and replaced the pairs
        pairs = [(step.rule, step.premises) for step in result.steps]
    needed: set[int] = set()
    stack = [target]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        stack.extend(pairs[i][1])
    ordered = sorted(needed)
    renumber = {old: new for new, old in enumerate(ordered)}
    conclusions = result._store._ids(result._indices[old] for old in ordered)
    return tuple(
        ProofStep(conclusion, pairs[old][0], tuple(renumber[p] for p in pairs[old][1]))
        for conclusion, old in zip(conclusions, ordered)
    )


@dataclass(frozen=True, slots=True)
class InvalidStep:
    index: int
    reason: str


def check_proof(
    steps: Sequence[ProofStep], system: AxiomaticSystem
) -> Optional[InvalidStep]:
    """Replay a proof DAG against the system; None means valid.

    Axiom steps must conclude an axiom; LEM_AXIOM steps must be enabled
    and conclude a schema instance over the universe; every other step's
    conclusion must be reproduced by apply_rule on its premises.
    """
    axioms = set(system.axioms)
    # Only OR_INTRO and LEM_AXIOM steps range over the universe.
    ranging = any(step.rule in (RuleKind.OR_INTRO, RuleKind.LEM_AXIOM) for step in steps)
    universe = system.universe() if ranging else ()
    lem_instances: Optional[frozenset[FormulaId]] = None
    for i, step in enumerate(steps):
        for p in step.premises:
            if not 0 <= p < i:
                return InvalidStep(i, f"premise {p} does not precede the step")
        if step.rule is None:
            if step.premises:
                return InvalidStep(i, "axiom step with premises")
            if step.conclusion not in axioms:
                return InvalidStep(i, "conclusion is not an axiom")
            continue
        if step.rule not in system.rules:
            return InvalidStep(i, f"rule {step.rule.value} is not enabled")
        if step.rule is RuleKind.LEM_AXIOM:
            if step.premises:
                return InvalidStep(i, "LEM_AXIOM step with premises")
            if lem_instances is None:
                lem_instances = apply_rule(RuleKind.LEM_AXIOM, (), system.store, universe)
            if step.conclusion not in lem_instances:
                return InvalidStep(i, "conclusion is not a LEM instance over the universe")
            continue
        if len(step.premises) != RULE_ARITY[step.rule]:
            return InvalidStep(i, f"wrong premise count for {step.rule.value}")
        premise_formulas = tuple(steps[p].conclusion for p in step.premises)
        conclusions = apply_rule(step.rule, premise_formulas, system.store, universe)
        if step.conclusion not in conclusions:
            return InvalidStep(i, "conclusion not reproduced by the rule")
    return None
