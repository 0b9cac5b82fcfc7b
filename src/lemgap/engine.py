"""Axiomatic systems, the inference-rule catalog, and bottom-up saturation.

A system is a finite set of concrete axioms plus a set of enabled rules and
bounds. `saturate` runs generation-based forward chaining to a fixed point
(or a bound), recording a well-founded proof step for every theorem, in a
fully deterministic discovery order.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .formula import (
    AND,
    ATOM_NAME,
    IMPLIES,
    NOT,
    OR,
    FormulaId,
    FormulaStore,
    ParseError,
    _atom_names,
    _case_splits,
    _closure,
    _id_index,
    _kinds_of,
    _lbi_shapes,
    _positions,
    _sort_canonical,
    atoms_of,
    parse,
    render,
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
    "MAX_FORMULA_BYTES",
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

    # Members are singletons that compare by identity, so they hash by it,
    # in C (`Enum.__hash__` is Python code): saturation and proof checking
    # look rules up per generation and per step. A set of rules iterates
    # in address order, so no output may depend on that order.
    __hash__ = object.__hash__


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
    """Invalid system document. `field` names the offending entry; the
    message quotes it when it is not printable (a document key may hold a
    newline), so the message stays one line."""

    def __init__(self, field_name: str, reason: str):
        self.field = field_name
        self.reason = reason
        shown = field_name if field_name.isprintable() else repr(field_name)
        super().__init__(f"{shown}: {reason}")


class AxiomTooLarge(ConfigError):
    pass


class ArityMismatch(Exception):
    def __init__(self, rule: RuleKind, got: int):
        super().__init__(f"{rule.value} takes {RULE_ARITY[rule]} premise(s), got {got}")


class NotDerived(Exception):
    """The goal is absent from the enumeration (says nothing semantic)."""


class _Record:
    """An immutable record of the attributes named by `_fields`, with the
    NamedTuple interface: `_fields`, `_asdict` and `_replace`. It equals
    only a record of its own class, and compares and hashes by `_key()`,
    its field values unless a subclass says otherwise.

    A subclass's `__init__` checks its arguments, then stores them with
    `_set`. `_replace` calls the constructor, so a replaced record is
    checked too, where a NamedTuple's `_replace` would skip its class."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    _key = _values

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes: object):
        return type(self)(**{**self._asdict(), **changes})

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


class Bounds(_Record):
    """Saturation bounds, each a positive `int` (not a `bool`).

    The one place bounds are checked, for a system document, a CLI
    override and a `Bounds` built in code alike. Every field's type is
    checked before any field's sign, so the first field in this order that
    is not an integer is named before any that is not positive."""

    __slots__ = _fields = ("max_formula_size", "max_generations", "max_theorems")

    def __init__(
        self, max_formula_size: int = 12, max_generations: int = 50, max_theorems: int = 100_000
    ) -> None:
        values = (max_formula_size, max_generations, max_theorems)
        for name, value in zip(self._fields, values):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"bounds.{name}", "must be an integer")
        for name, value in zip(self._fields, values):
            if value < 1:
                raise ConfigError(f"bounds.{name}", "must be a positive integer")
        self._set(*values)


def _tuple(value: Iterable, field_name: str, items_of: str) -> tuple:
    """`value` as a tuple; a `ConfigError` naming the field unless it is
    iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ConfigError(field_name, f"must be a tuple of {items_of}") from None
    return tuple(items)


class AxiomaticSystem(_Record):
    """Concrete axioms + enabled rules + bounds, tied to one FormulaStore.

    The side-formula universe (what OR_INTRO and LEM_AXIOM range over) is
    the subformula closure of the axioms and any declared side formulas.
    Construction checks every field: `store` must be a `FormulaStore`,
    `atoms` an iterable of distinct atom names (not one `str`), `rules` a
    frozenset of `RuleKind` members, `bounds` a `Bounds`, and `axioms`
    and `side_formulas` iterables of ids of `store`; a field that is not
    so is named by a `ConfigError`, except that an item that is not an id
    trips the id predicate's `AssertionError`. The atoms and formulas are
    kept as tuples, so the package reads the formulas' indices later
    without checking them again.
    """

    __slots__ = _fields = ("store", "atoms", "axioms", "rules", "side_formulas", "bounds")

    def __init__(
        self,
        store: FormulaStore,
        atoms: tuple[str, ...],
        axioms: tuple[FormulaId, ...],
        rules: frozenset[RuleKind],
        side_formulas: tuple[FormulaId, ...] = (),
        bounds: Bounds = Bounds(),
    ) -> None:
        if not isinstance(store, FormulaStore):
            raise ConfigError("store", "must be a FormulaStore")
        if isinstance(atoms, str):
            raise ConfigError("atoms", "must be a tuple of atom names, not a str")
        atoms = _tuple(atoms, "atoms", "atom names")
        if not all(isinstance(name, str) for name in atoms):
            raise ConfigError("atoms", "must be a tuple of atom names")
        if not isinstance(rules, frozenset) or not {RuleKind}.issuperset(map(type, rules)):
            raise ConfigError("rules", "must be a frozenset of RuleKind members")
        if not isinstance(bounds, Bounds):
            raise ConfigError("bounds", "must be a Bounds")
        axioms = _tuple(axioms, "axioms", "formula ids")
        side_formulas = _tuple(side_formulas, "side_formulas", "formula ids")
        declared = set(atoms)
        for i, name in enumerate(atoms):
            if not ATOM_NAME.fullmatch(name):
                raise ConfigError(f"atoms[{i}]", f"invalid atom name {name!r}")
        if len(declared) != len(atoms):
            raise ConfigError("atoms", "duplicate atom names")
        # One closure over every formula finds whether any atom is
        # undeclared; only then is each formula scanned, so that the error
        # names the first one that uses such an atom. `store._index` checks
        # every id, so each size is read off the store's column.
        limit = bounds.max_formula_size
        used = _atom_names(map(store._index, (*axioms, *side_formulas)), store)
        undeclared = used - declared
        for field_name, formulas, too_large in (
            ("axioms", axioms, AxiomTooLarge),
            ("side_formulas", side_formulas, ConfigError),
        ):
            for i, f in enumerate(formulas):
                for name in atoms_of(f, store) if undeclared else ():
                    if name in undeclared:
                        raise ConfigError(f"{field_name}[{i}]", f"uses undeclared atom {name!r}")
                if (n := store._sizes[f.index]) > limit:
                    raise too_large(
                        f"{field_name}[{i}]", f"size {n} exceeds max_formula_size {limit}"
                    )
        self._set(store, atoms, axioms, rules, side_formulas, bounds)

    def universe(self) -> tuple[FormulaId, ...]:
        """Side-formula universe: the subformula closure of the axioms and
        side formulas, in canonical (size, text) order."""
        store = self.store
        # The formulas were checked when the system was built.
        closure = list(_closure(map(_id_index, (*self.axioms, *self.side_formulas)), store))
        _sort_canonical(closure, store)
        return tuple(store._ids(closure))

    def with_rules(self, rules: Iterable[RuleKind]) -> AxiomaticSystem:
        return self._replace(rules=frozenset(rules))


# The name a step's rule is shown by, `AXIOM` for an axiom (None), looked
# up in C: output shows it per step, and `rule.value` is a Python property.
_rule_name = {None: "AXIOM", **{rule: rule.value for rule in RuleKind}}.__getitem__


# A run keeps each step as one int: the rule's code, its position in
# _STEP_LAYOUTS (0 for an axiom), in the low 4 bits, then the first premise
# position from bit _FIRST and the second from bit _SECOND, 32 bits each.
# Positions fit, as store indices fit the store's `left << 32 | right`
# keys: 2**32 theorems would need hundreds of GB. Unlike a tuple, an int is
# not tracked by the cyclic collector.
_STEP_LAYOUTS = tuple((rule, RULE_ARITY.get(rule, 0)) for rule in (None, *RuleKind))
_STEP_CODE = {rule: code for code, (rule, _) in enumerate(_STEP_LAYOUTS)}
_CODE_MASK = 15
_FIRST, _SECOND = 4, 36
_POSITION_MASK = (1 << 32) - 1


def _pack(rule: Optional[RuleKind], first: int = 0, second: int = 0) -> int:
    """The step of `rule` on the premise positions `first` and `second`,
    packed; a rule of fewer premises leaves the others 0."""
    return _STEP_CODE[rule] | first << _FIRST | second << _SECOND


def _unpack(step: int) -> tuple[Optional[RuleKind], tuple[int, ...]]:
    """The (rule, premises) pair of a packed step; None is an axiom."""
    rule, arity = _STEP_LAYOUTS[step & _CODE_MASK]
    if not arity:
        return rule, ()
    first = step >> _FIRST & _POSITION_MASK
    return rule, (first,) if arity == 1 else (first, step >> _SECOND)


class ProofStep(NamedTuple):
    """One derivation: `rule` applied to earlier steps gives `conclusion`.

    `rule` is None for axioms. Premises are indices of earlier steps, so
    each premise is strictly smaller than the step's own position. As a
    NamedTuple, like `FormulaId`, it is built, hashed and compared in C,
    and it compares equal to a plain `(conclusion, rule, premises)` tuple.
    """

    conclusion: FormulaId
    rule: Optional[RuleKind]
    premises: tuple[int, ...]

    @property
    def rule_name(self) -> str:
        return _rule_name(self.rule)


class Stats(NamedTuple):
    """Saturation counters. `rule_applications` counts premise tuples that
    matched a rule's pattern (plus one per enabled zero-premise schema);
    `dedup_hits` counts in-bound conclusions that were already known.

    Saturation counts two kinds of premise without trying them, because the
    outcome is known: each AND_ELIM on a conjunction AND_INTRO derived (one
    application and one dedup hit, as its conjuncts are theorems), and each
    OR_INTRO premise too large for every universe member (one application,
    no conclusion). The counts are the same as if each were tried."""

    generations_run: int
    fixed_point_reached: bool
    rule_applications: int
    dedup_hits: int


class EnumerationResult(_Record):
    """Discovery-ordered theorem list with aligned proof steps and
    generation numbers. `stop_reason` is `fixed_point`, `max_generations`
    or `max_theorems`.

    A result's step table is two int columns aligned with `generations`:
    its run's store indices (`_indices`) and packed steps (`_packed`, one
    int per step; see `_unpack`). Neither changes after the run.
    `theorems` and `steps` are views of it, built on first read, so
    `gap_report`, `extract_proof` and the `enumerate` command, which read
    the table, build no id or proof step per theorem. Results compare by
    the table itself, with the store's tag when there are theorems, and by
    generations and stats, so comparing builds neither view.
    """

    # No __slots__: the views are cached in the instance's __dict__.
    _fields = ("generations", "stats", "stop_reason", "_store", "_indices", "_packed")

    def __init__(
        self,
        generations: tuple[int, ...],
        stats: Stats,
        stop_reason: str,
        _store: FormulaStore,
        _indices: Sequence[int],
        _packed: Sequence[int],
    ) -> None:
        self._set(generations, stats, stop_reason, _store, _indices, _packed)

    @cached_property
    def theorems(self) -> tuple[FormulaId, ...]:
        return tuple(self._store._ids(self._indices))

    @cached_property
    def steps(self) -> tuple[ProofStep, ...]:
        return tuple(
            ProofStep(f, *_unpack(step)) for f, step in zip(self.theorems, self._packed)
        )

    def _key(self) -> tuple:
        tag = self._store._tag if self._indices else None
        return tag, tuple(self._indices), tuple(self._packed), self.generations, self.stats

    def index_of(self, f: FormulaId) -> Optional[int]:
        if f not in self._store:
            return None
        try:
            return self._indices.index(f.index)
        except ValueError:
            return None


# ---------------------------------------------------------------------------
# System documents (JSON)
# ---------------------------------------------------------------------------

_DOCUMENT_KEYS = frozenset(AxiomaticSystem._fields) - {"store"}
# Longest formula text, in UTF-8 bytes, in a system document or a CLI
# argument. Rendering caches the text of every subformula, so memory grows
# with size times depth; this bounds it.
MAX_FORMULA_BYTES = 16_384


def _formula_too_long(text: str) -> bool:
    return len(text.encode("utf-8", "surrogatepass")) > MAX_FORMULA_BYTES


def _parse_formula_list(
    values: object, field_name: str, store: FormulaStore
) -> tuple[FormulaId, ...]:
    if not isinstance(values, list):
        raise ConfigError(field_name, "must be a list of formula strings")
    out = []
    for i, text in enumerate(values):
        if not isinstance(text, str):
            raise ConfigError(f"{field_name}[{i}]", "must be a formula string")
        if _formula_too_long(text):
            raise ConfigError(
                f"{field_name}[{i}]", f"formula longer than {MAX_FORMULA_BYTES} bytes"
            )
        try:
            out.append(parse(text, store))
        except ParseError as exc:
            raise ConfigError(f"{field_name}[{i}]", str(exc)) from exc
    return tuple(out)


def load_system(text: str) -> AxiomaticSystem:
    """Load and validate a JSON system document.

    Unknown keys are rejected, and so is a formula string longer than
    MAX_FORMULA_BYTES. Defaults: rules {MP}; bounds 12 / 50 / 100000; atoms
    inferred from the axioms and side formulas when omitted.
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
        if key not in Bounds._fields:
            raise ConfigError(f"bounds.{key}", "unknown key")
    bounds = Bounds(**bounds_doc)

    atoms_doc = doc.get("atoms")
    if atoms_doc is None:
        # The store is this document's own, so its atoms are the ones the
        # axioms and side formulas use.
        atoms = tuple(sorted(store._names.values()))
    else:
        if not isinstance(atoms_doc, list) or not all(isinstance(a, str) for a in atoms_doc):
            raise ConfigError("atoms", "must be a list of atom names")
        atoms = tuple(atoms_doc)

    return AxiomaticSystem(store, atoms, axioms, frozenset(rules), side, bounds)


def system_document(system: AxiomaticSystem) -> dict:
    """JSON-ready document that round-trips through load_system."""
    return {
        "atoms": list(system.atoms),
        "axioms": [render(f, system.store) for f in system.axioms],
        "rules": [r.value for r in RuleKind if r in system.rules],
        "side_formulas": [render(f, system.store) for f in system.side_formulas],
        "bounds": system.bounds._asdict(),
    }


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _conclusions(
    rule: RuleKind, premises: Sequence[int], store: FormulaStore, universe: Sequence[int],
    build: Callable[..., Optional[int]],
) -> list[Optional[int]]:
    """Store indices of the conclusions of `rule` on the indexed premises,
    as many as the rule takes; OR_INTRO and LEM_AXIOM range over the
    indexed `universe`. The indices are not checked.

    `build(kind, left, right=-1)` gives the index of the node AND_INTRO,
    OR_INTRO and LEM_AXIOM conclude, and of the negation inside LEM:
    `store._intern`, or `store._lookup`, which interns nothing and gives
    None for a node never interned. With a lookup, LEM skips each `x`
    whose negation was never interned, and a None conclusion matches no
    step's.

    Each rule's one reference definition, read off the store's columns.
    It shares no matcher with saturation or `gap.lbi_accepted`
    (`formula._lbi_shapes`, `formula._case_splits`), so `check_proof`
    replays a derivation with other code than the code that found it,
    and tests compare those matchers against it."""
    kinds, lefts, rights = store._kinds, store._lefts, store._rights
    if rule is RuleKind.MP:
        phi, imp = premises
        return [rights[imp]] if kinds[imp] == IMPLIES and lefts[imp] == phi else []
    if rule is RuleKind.AND_INTRO:
        return [build(AND, *premises)]
    if rule is RuleKind.AND_ELIM_L:
        return [lefts[premises[0]]] if kinds[premises[0]] == AND else []
    if rule is RuleKind.AND_ELIM_R:
        return [rights[premises[0]]] if kinds[premises[0]] == AND else []
    if rule is RuleKind.OR_INTRO:
        (phi,) = premises
        return [f for sigma in universe for f in (build(OR, phi, sigma), build(OR, sigma, phi))]
    if rule is RuleKind.LEM_AXIOM:
        return [build(OR, x, n) for x in universe if (n := build(NOT, x)) is not None]
    if rule is RuleKind.LBI_RULE:
        # (x | ~x) -> y or (~x | x) -> y: one disjunct negates the other.
        (f,) = premises
        if kinds[f] != IMPLIES or kinds[lefts[f]] != OR:
            return []
        a, b = lefts[lefts[f]], rights[lefts[f]]
        if (kinds[b] == NOT and lefts[b] == a) or (kinds[a] == NOT and lefts[a] == b):
            return [rights[f]]
        return []
    if rule is RuleKind.CASE_SPLIT:
        # x -> y, ~x -> y, in that order.
        pos, neg = premises
        if kinds[pos] != IMPLIES or kinds[neg] != IMPLIES or rights[pos] != rights[neg]:
            return []
        negated = lefts[neg]
        return [rights[pos]] if kinds[negated] == NOT and lefts[negated] == lefts[pos] else []
    raise AssertionError(f"unhandled rule {rule!r}")


def apply_rule(
    rule: RuleKind,
    premises: Sequence[FormulaId],
    store: FormulaStore,
    universe: Iterable[FormulaId] = (),
) -> frozenset[FormulaId]:
    """All conclusions of one rule application; empty when shapes mismatch.

    No size filtering happens here; bounding is the enumerator's job.
    OR_INTRO and LEM_AXIOM range over `universe`. The rules are defined
    by `_conclusions`, over the store's columns; the conclusions are
    interned, as they are returned as ids.
    """
    if len(premises) != RULE_ARITY[rule]:
        raise ArityMismatch(rule, len(premises))
    premises, universe = list(map(store._index, premises)), list(map(store._index, universe))
    return frozenset(store._ids(_conclusions(rule, premises, store, universe, store._intern)))


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class _Saturation:
    """One saturation run over formula indices. Every id it handles was
    issued by `system.store` (checked when the system was built), so the
    loops read the store's columns directly and intern without the
    checks. A step is one packed int (see `_pack`), which each rule builds
    with shifts and ors as it derives a conclusion, so admitting a theorem
    allocates no tuple. The result keeps the run's index columns; no id or
    proof step is built here.

    `admit_generation` sorts each new generation by (size, text), and the
    rules rely on it: AND_INTRO's budget lists and OR_INTRO's cut of delta
    are prefixes by size. It also reads each generation's kinds once, in
    one C-level pass, for the positions of its implications, which MP,
    LBI_RULE and CASE_SPLIT read, and its number of conjunctions. The
    conjunctions AND_INTRO did not derive are the ones that came through
    `offer` (every rule but AND_INTRO and OR_INTRO offers its conclusions
    there, and OR_INTRO's are disjunctions); AND_ELIM opens only those and
    counts the rest in bulk (see `Stats`). AND_INTRO and OR_INTRO, the
    joins that derive nearly all of a wide run, intern in place: each
    looks its conclusions up in the store's table for its kind, and
    records a node new to the store at once. LBI_RULE and CASE_SPLIT match
    with `_lbi_shapes` and `_case_splits`, which `gap.lbi_accepted` uses
    too; CASE_SPLIT finds its partner premise by a lookup in the store's
    tables. `_conclusions` stays the independent definition that
    `check_proof` replays."""

    def __init__(self, system: AxiomaticSystem):
        self.system = system
        self.rules = system.rules
        self.store = store = system.store
        self.kinds, self.lefts, self.rights = store._kinds, store._lefts, store._rights
        self.sizes = store._sizes
        self.max_size = system.bounds.max_formula_size
        self.universe = [sigma.index for sigma in system.universe()]
        # Non-decreasing, because the universe is sorted by (size, text).
        self.universe_sizes = [self.sizes[sigma] for sigma in self.universe]
        self.theorems: list[int] = []
        self.steps: list[int] = []  # packed
        self.generations: list[int] = []
        self.position: dict[int, int] = {}
        # upto[b]: ascending positions of the theorems of size at most b, for
        # each AND_INTRO budget b up to the largest size seen, capped at
        # max_size - 2 (at least one list); upto[-1] holds every theorem of
        # a larger budget too. Kept only when AND_INTRO is enabled.
        self.upto: list[list[int]] = [[]] if RuleKind.AND_INTRO in self.rules else []
        # Antecedent -> the position of its one implication, or a list of
        # positions from its second on. An int is not tracked by the cyclic
        # collector, and a chain has one implication per antecedent.
        self.impl_by_antecedent: dict[int, int | list[int]] = {}
        # Found once, on admission, for the newest generation: the positions
        # of its implications, the premises MP, LBI_RULE and CASE_SPLIT look
        # for; how many conjunctions it holds; and the positions of those
        # that AND_INTRO did not derive, the ones AND_ELIM must open.
        self.new_implications: list[int] = []
        self.new_conjunctions = 0
        self.open_conjunctions: list[int] = []
        self.applications = 0
        self.dedup_hits = 0
        # Per-round scratch: conclusion -> the packed step that first derived
        # it, and the conjunctions among them that came through `offer`.
        self.candidates: dict[int, int] = {}
        self.offered_conjunctions: list[int] = []

    def offer(self, conclusion: int, step: int) -> None:
        """Record `conclusion` as a candidate of this round, or count a
        dedup hit. It fits `max_size`: an axiom does (`AxiomTooLarge`),
        `seed` offers only the LEM instances that fit, and every other
        conclusion offered is a proper subformula of a theorem. The
        AND_INTRO and OR_INTRO joins do not call it: they make the same
        check on a conclusion they find in the store's tables, and skip it
        for a node they append, which can be neither a theorem nor a
        candidate."""
        if conclusion in self.position or conclusion in self.candidates:
            self.dedup_hits += 1
            return
        self.candidates[conclusion] = step
        if self.kinds[conclusion] == AND:
            self.offered_conjunctions.append(conclusion)

    def admit_generation(self, gen: int) -> None:
        candidates = self.candidates
        self.candidates = {}
        ordered = list(candidates)
        _sort_canonical(ordered, self.store)
        room = self.system.bounds.max_theorems - len(self.theorems)
        del ordered[room:]
        first = len(self.theorems)
        self.theorems += ordered
        self.steps += map(candidates.__getitem__, ordered)
        self.generations += repeat(gen, len(ordered))
        self.position.update(zip(ordered, range(first, len(self.theorems))))
        if self.upto and ordered:
            # `ordered` is sorted by size, so the theorems of size at most
            # b are a prefix of it.
            size_of = self.sizes.__getitem__
            for _ in range(len(self.upto), min(size_of(ordered[-1]), self.max_size - 2) + 1):
                self.upto.append(self.upto[-1].copy())
            for budget, bucket in enumerate(self.upto):
                bucket += range(first, first + bisect_right(ordered, budget, key=size_of))
        new_kinds = _kinds_of(ordered, self.store)
        self.new_conjunctions = new_kinds.count(AND)
        offered, self.offered_conjunctions = self.offered_conjunctions, []
        # An offered conjunction has no position only if the cut dropped it.
        self.open_conjunctions = sorted(
            i for i in map(self.position.get, offered) if i is not None
        )
        self.new_implications = _positions(IMPLIES, new_kinds, first)
        by_antecedent = self.impl_by_antecedent
        for j in self.new_implications:
            antecedent = self.lefts[self.theorems[j]]
            known = by_antecedent.setdefault(antecedent, j)
            if type(known) is list:
                known.append(j)
            elif known != j:
                by_antecedent[antecedent] = [known, j]

    def seed(self) -> None:
        axiom = _pack(None)
        for ax in self.system.axioms:
            self.offer(ax.index, axiom)
        if RuleKind.LEM_AXIOM in self.rules:
            self.applications += 1
            store = self.store
            lem = _pack(RuleKind.LEM_AXIOM)
            # `x | ~x` has size 2 + 2 * size(x), and the universe is sorted
            # by size: the first instance that does not fit ends the loop,
            # before it or its `~x` is interned.
            for x, x_size in zip(self.universe, self.universe_sizes):
                if 2 + 2 * x_size > self.max_size:
                    break
                self.offer(store._intern_binary(OR, x, store._neg(x)), lem)
        self.admit_generation(0)

    def run_mp(self, delta: range) -> None:
        theorems, position = self.theorems, self.position
        pairs = set()
        for j in self.new_implications:
            i = position.get(self.lefts[theorems[j]])
            if i is not None:
                pairs.add((i, j))
        # Each theorem of delta that is the antecedent of an implication j,
        # found by one C-level intersection with delta's theorems.
        by_antecedent = self.impl_by_antecedent
        for a in by_antecedent.keys() & theorems[delta.start:]:
            i, js = position[a], by_antecedent[a]
            pairs.update((i, j) for j in ((js,) if type(js) is int else js))
        mp = _pack(RuleKind.MP)
        for i, j in sorted(pairs):
            self.applications += 1
            self.offer(self.rights[theorems[j]], mp | i << _FIRST | j << _SECOND)

    def run_and_intro(self, delta: range) -> None:
        # Every pair (i, j) with i or j in delta whose conjunction fits,
        # size(i) + size(j) < max_size, in ascending order: an i before delta
        # pairs with the delta theorems within its budget, an i in delta with
        # every theorem within it. Each conjunction fits, as `offer` expects.
        # The join interns in place, by the store's AND table: a key it
        # misses is a node new to the store, appended by `_add` and recorded
        # at once, as it can be neither a theorem nor a candidate; a hit
        # takes `offer`'s dedup check.
        theorems, sizes = self.theorems, self.sizes
        position, candidates = self.position, self.candidates
        find, add = self.store._tables[AND].get, self.store._add
        start = delta.start
        in_delta = [bucket[bisect_left(bucket, start):] for bucket in self.upto]
        and_intro = _pack(RuleKind.AND_INTRO)
        dedup_hits = 0
        for i in self.upto[-1]:
            left = theorems[i]
            budget = min(self.max_size - 1 - sizes[left], len(in_delta) - 1)
            partners = self.upto[budget] if i >= start else in_delta[budget]
            self.applications += len(partners)
            first = and_intro | i << _FIRST
            high, left_size = left << 32, 1 + sizes[left]
            for j in partners:
                right = theorems[j]
                key = high | right
                conclusion = find(key)
                if conclusion is None:
                    candidates[add(AND, key, left, right, left_size + sizes[right])] = (
                        first | j << _SECOND)
                elif conclusion in position or conclusion in candidates:
                    dedup_hits += 1
                else:
                    candidates[conclusion] = first | j << _SECOND
        self.dedup_hits += dedup_hits

    def run_and_elim(self, delta: range) -> None:
        """A conjunction AND_INTRO derived from positions (i, j) has the
        theorems i and j as its conjuncts, so each enabled elimination on
        it is one application and one dedup hit: counted, not tried. Only
        delta's other conjunctions, `open_conjunctions` (axioms and the
        conclusions of MP, LBI_RULE, CASE_SPLIT and AND_ELIM), go through
        `offer`."""
        elim_left = RuleKind.AND_ELIM_L in self.rules
        elim_right = RuleKind.AND_ELIM_R in self.rules
        counted = (self.new_conjunctions - len(self.open_conjunctions)) * (elim_left + elim_right)
        self.applications += counted
        self.dedup_hits += counted
        for i in self.open_conjunctions:
            f = self.theorems[i]
            if elim_left:
                self.applications += 1
                self.offer(self.lefts[f], _pack(RuleKind.AND_ELIM_L, i))
            if elim_right:
                self.applications += 1
                self.offer(self.rights[f], _pack(RuleKind.AND_ELIM_R, i))

    def run_or_intro(self, delta: range) -> None:
        """Each theorem of delta is one application. Only those that fit
        beside the smallest universe member are tried. `admit_generation`
        sorts each generation by size, so they are a prefix of delta, found
        by bisection; the rest are counted without a loop (S9 tries 6,300
        of its 110,747 theorems). Each disjunction tried fits the budget, as
        `offer` expects. As in run_and_intro, the join interns in place, by
        the store's OR table: `phi | sigma`, then `sigma | phi`, each
        recorded at once when new to the store and checked for dedup when
        found."""
        theorems, sizes = self.theorems, self.sizes
        position, candidates = self.position, self.candidates
        find, add = self.store._tables[OR].get, self.store._add
        self.applications += len(delta)
        smallest = self.universe_sizes[0] if self.universe_sizes else self.max_size
        fitting = bisect_right(
            theorems, self.max_size - 1 - smallest, delta.start, delta.stop, key=sizes.__getitem__
        )
        or_intro = _pack(RuleKind.OR_INTRO)
        dedup_hits = 0
        for i in range(delta.start, fitting):
            phi = theorems[i]
            budget = self.max_size - 1 - sizes[phi]
            step = or_intro | i << _FIRST
            high, phi_size = phi << 32, 1 + sizes[phi]
            for sigma, sigma_size in zip(self.universe, self.universe_sizes):
                if sigma_size > budget:
                    break
                key = high | sigma
                conclusion = find(key)
                if conclusion is None:
                    candidates[add(OR, key, phi, sigma, phi_size + sigma_size)] = step
                elif conclusion in position or conclusion in candidates:
                    dedup_hits += 1
                else:
                    candidates[conclusion] = step
                key = sigma << 32 | phi
                conclusion = find(key)
                if conclusion is None:
                    candidates[add(OR, key, sigma, phi, phi_size + sigma_size)] = step
                elif conclusion in position or conclusion in candidates:
                    dedup_hits += 1
                else:
                    candidates[conclusion] = step
        self.dedup_hits += dedup_hits

    def run_lbi(self, delta: range) -> None:
        for i, _, conclusion in _lbi_shapes(self.theorems, self.new_implications, self.store):
            self.applications += 1
            self.offer(conclusion, _pack(RuleKind.LBI_RULE, i))

    def run_case_split(self, delta: range) -> None:
        theorems = self.theorems
        pairs = _case_splits(theorems, self.new_implications, self.position, self.store)
        for i, j in sorted(set(pairs)):
            self.applications += 1
            self.offer(self.rights[theorems[i]], _pack(RuleKind.CASE_SPLIT, i, j))

    def run(self) -> EnumerationResult:
        # Each enabled rule's runner, in this order; AND_ELIM's runs once for
        # either side.
        runners = [
            run for rules, run in (
                ({RuleKind.MP}, self.run_mp),
                ({RuleKind.AND_INTRO}, self.run_and_intro),
                ({RuleKind.AND_ELIM_L, RuleKind.AND_ELIM_R}, self.run_and_elim),
                ({RuleKind.OR_INTRO}, self.run_or_intro),
                ({RuleKind.LBI_RULE}, self.run_lbi),
                ({RuleKind.CASE_SPLIT}, self.run_case_split),
            ) if not self.rules.isdisjoint(rules)
        ]
        self.seed()
        rounds = 0
        gen_start = 0
        stop_reason = "max_theorems"
        # A cut fills the theorem list to max_theorems, so it ends the loop.
        while len(self.theorems) < self.system.bounds.max_theorems:
            if rounds >= self.system.bounds.max_generations:
                stop_reason = "max_generations"
                break
            # A round applies every enabled rule to every premise tuple
            # touching delta, the newest generation.
            delta = range(gen_start, len(self.theorems))
            gen_start = len(self.theorems)
            for run_rule in runners:
                run_rule(delta)
            rounds += 1
            if not self.candidates:
                stop_reason = "fixed_point"
                break
            self.admit_generation(rounds)
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
            _indices=self.theorems,
            _packed=self.steps,
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

    The result keeps the run's step table, its index columns; ids and
    proof steps are built only when its `theorems` or `steps` are read,
    which neither `gap_report` nor the `enumerate` command does.

    A run leaves the cyclic garbage collector as the caller set it: it
    makes no reference cycles, and what its result keeps per theorem,
    ints and texts, is not tracked by the collector.
    """
    return _Saturation(system).run()


# ---------------------------------------------------------------------------
# Proof extraction and checking
# ---------------------------------------------------------------------------

def extract_proof(result: EnumerationResult, goal: FormulaId) -> tuple[ProofStep, ...]:
    """Minimal self-contained proof DAG for `goal`, topologically ordered.

    Premise indices are rewritten to positions within the returned tuple.
    Raises NotDerived when the goal never made it into the enumeration.
    Reads the run's step table, unpacks each step the proof needs once,
    and builds the proof's steps only, not the run's.
    """
    target = result.index_of(goal)
    if target is None:
        raise NotDerived("goal is not among the enumerated theorems")
    packed = result._packed
    needed: dict[int, tuple[Optional[RuleKind], tuple[int, ...]]] = {}
    stack = [target]
    while stack:
        i = stack.pop()
        if i not in needed:
            needed[i] = step = _unpack(packed[i])
            stack += step[1]
    ordered = sorted(needed)
    renumber = {old: new for new, old in enumerate(ordered)}.__getitem__
    conclusions = result._store._ids(map(result._indices.__getitem__, ordered))
    # tuple.__new__ builds each step in C, as `FormulaStore._ids` builds ids.
    return tuple(map(tuple.__new__, repeat(ProofStep), (
        (conclusion, rule, tuple(map(renumber, premises)))
        for conclusion, (rule, premises) in zip(conclusions, map(needed.__getitem__, ordered))
    )))


class InvalidStep(NamedTuple):
    index: int
    reason: str


def check_proof(
    steps: Iterable[ProofStep], system: AxiomaticSystem
) -> Optional[InvalidStep]:
    """Replay a proof DAG against the system; None means valid.

    One pass reads, checks and replays each step in order, so a generator
    or an iterator is checked like a list, and a proof with several faults
    is answered at its first faulty step: nothing after it is read. A step
    must unpack into (conclusion, rule, premises); its conclusion must be
    an id of the system's store (`FormulaStore._index` raises
    `AssertionError` otherwise); its premises a tuple of `int`s (not
    `bool`s), each an earlier step's position; and its rule None (an
    axiom) or a `RuleKind`. Any other fault is answered with an
    `InvalidStep`. Axiom steps must conclude an axiom; LEM_AXIOM steps
    must be enabled and conclude a schema instance over the universe;
    every other step's conclusion must be one `_conclusions` gives on its
    premises, the definition `apply_rule` reads too. The system's axioms
    and universe were checked when it was built, so their indices are
    read. Each step is replayed on store indices, so no id, node or set
    is built per step. A rule's candidate conclusions are looked up, not
    interned: a step's conclusion is already in the store, so the replay
    adds nothing to it.
    """
    store, enabled, lookup = system.store, system.rules, system.store._lookup
    # Read once: up to Python 3.11 `EnumType` defines `__getattr__`, which
    # slows every member lookup.
    lem_axiom = RuleKind.LEM_AXIOM
    conclusions: list[int] = []
    conclusion_index, premise_index = store._index, conclusions.__getitem__
    axioms = set(map(_id_index, system.axioms))
    # Only OR_INTRO and LEM_AXIOM steps range over the universe, and only
    # when the system enables them.
    ranging = not enabled.isdisjoint({RuleKind.OR_INTRO, RuleKind.LEM_AXIOM})
    universe = list(map(_id_index, system.universe())) if ranging else []
    lem_instances: Optional[set[int]] = None
    not_ints = "premises are not a tuple of ints"
    for i, step in enumerate(steps):
        try:
            f, rule, premises = step
        except (TypeError, ValueError):
            return InvalidStep(i, "step is not a (conclusion, rule, premises) triple")
        conclusions.append(conclusion := conclusion_index(f))
        if type(premises) is not tuple:
            return InvalidStep(i, not_ints)
        for p in premises:
            if type(p) is not int:
                return InvalidStep(i, not_ints)
            if not 0 <= p < i:
                return InvalidStep(i, f"premise {p} does not precede the step")
        if rule is None:
            if premises:
                return InvalidStep(i, "axiom step with premises")
            if conclusion not in axioms:
                return InvalidStep(i, "conclusion is not an axiom")
            continue
        if type(rule) is not RuleKind:
            return InvalidStep(i, "rule is neither None nor a RuleKind")
        if rule not in enabled:
            return InvalidStep(i, f"rule {rule.value} is not enabled")
        if rule is lem_axiom:
            if premises:
                return InvalidStep(i, "LEM_AXIOM step with premises")
            if lem_instances is None:
                lem_instances = set(_conclusions(rule, (), store, universe, lookup))
            if conclusion not in lem_instances:
                return InvalidStep(i, "conclusion is not a LEM instance over the universe")
            continue
        if len(premises) != RULE_ARITY[rule]:
            return InvalidStep(i, f"wrong premise count for {rule.value}")
        found = _conclusions(rule, tuple(map(premise_index, premises)), store, universe, lookup)
        if conclusion not in found:
            return InvalidStep(i, "conclusion not reproduced by the rule")
    return None
