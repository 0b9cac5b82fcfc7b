"""Excluded-middle gap reports.

A theorem set accepts a conclusion `y` by excluded-middle-based inference
when it contains `(x | ~x) -> y` for some pivot `x`, or both `x -> y` and
`~x -> y`. This module computes that accepted set for an enumeration,
subtracts the enumeration itself, verifies every member of the difference
against the truth-table oracle, and optionally re-runs with a closing rule
to show the difference disappear.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple, Optional

from .engine import (
    AxiomaticSystem,
    EnumerationResult,
    RuleKind,
    load_system,
    saturate,
)
from .formula import IMPLIES, NOT, FormulaId, _case_splits, _kinds_of, _lbi_shapes, _positions
from .formula import _texts_of, render
from .oracle import entails, independent

__all__ = [
    "WitnessMode",
    "LbiWitness",
    "GapVerification",
    "GapMember",
    "GapReport",
    "PreconditionViolated",
    "CLOSING_RULES",
    "DemoVariant",
    "lbi_accepted",
    "gap_report",
    "demo_system",
    "demo_family",
    "report_document",
]

# Rules that discharge a case split without settling the pivot. A base
# enumeration for a gap report must not contain any of them, and the
# closure re-run adds exactly one of them.
CLOSING_RULES = frozenset({RuleKind.LBI_RULE, RuleKind.LEM_AXIOM, RuleKind.CASE_SPLIT})


class PreconditionViolated(Exception):
    pass


class WitnessMode(enum.Enum):
    EQ1_SHAPE = "EQ1_SHAPE"      # a theorem reads (x | ~x) -> y
    TWO_BRANCH = "TWO_BRANCH"    # x -> y and ~x -> y are both theorems


class LbiWitness(NamedTuple):
    """Why a conclusion is accepted: the pivot and the theorems used."""

    conclusion: FormulaId
    pivot: FormulaId
    mode: WitnessMode
    source_indices: tuple[int, ...]


class GapVerification(NamedTuple):
    """Oracle-computed facts about one gap member (never hardcoded)."""

    oracle_entailed: bool
    pivot_independent_semantically: bool
    pivot_absent_syntactically: bool


class GapMember(NamedTuple):
    conclusion: FormulaId
    witnesses: tuple[LbiWitness, ...]
    verification: GapVerification


class GapReport(NamedTuple):
    system: AxiomaticSystem
    enumerated: EnumerationResult
    lbi_accepted: tuple[LbiWitness, ...]
    gap: tuple[GapMember, ...]
    closure_rule: Optional[RuleKind]
    closure: Optional[EnumerationResult]
    gap_closed: Optional[bool]


def lbi_accepted(result: EnumerationResult) -> tuple[LbiWitness, ...]:
    """All excluded-middle acceptances visible in an enumeration, read
    against the run's own store.

    Reads the run's implications only. An EQ1_SHAPE witness is a theorem
    `(x | ~x) -> y` or `(~x | x) -> y` (`formula._lbi_shapes`, which
    LBI_RULE applies too); a TWO_BRANCH witness is a theorem pair
    `x -> y`, `~x -> y`, matched by `formula._case_splits`, the matcher
    CASE_SPLIT runs, so the two cannot drift apart. Witnesses are
    deduplicated by (conclusion, pivot, mode), the first (lowest) source
    positions kept, and sorted by canonical text so the output does not
    depend on discovery order. Interns nothing.
    """
    store, theorems = result._store, result._indices
    # Both patterns read implications only: their positions, walked once.
    positions = _positions(IMPLIES, _kinds_of(theorems, store))
    # (conclusion, pivot, mode) -> source positions, first witness kept.
    found: dict[tuple[int, int, WitnessMode], tuple[int, ...]] = {}
    for j, pivot, conclusion in _lbi_shapes(theorems, positions, store):
        found.setdefault((conclusion, pivot, WitnessMode.EQ1_SHAPE), (j,))
    lefts, rights = store._lefts, store._rights
    position = {theorems[j]: j for j in positions}
    for i, j in _case_splits(theorems, positions, position, store):
        f = theorems[i]
        found.setdefault((rights[f], lefts[f], WitnessMode.TWO_BRANCH), (i, j))

    witnesses = []
    for (conclusion, pivot, mode), sources in found.items():
        conclusion_id, pivot_id = store._ids((conclusion, pivot))
        witnesses.append(LbiWitness(conclusion_id, pivot_id, mode, sources))
    witnesses.sort(
        key=lambda w: (render(w.conclusion, store), render(w.pivot, store), w.mode.value)
    )
    return tuple(witnesses)


def gap_report(
    system: AxiomaticSystem, close_with: Optional[RuleKind] = None
) -> GapReport:
    """Accepted-minus-enumerated difference, verified member by member.

    The base system must not enable any closing rule, so the base run is
    the plain bottom-up enumeration. Each gap member is checked with the
    oracle: is the conclusion entailed by the axioms, is every witness
    pivot semantically independent of them, and are the pivots (and their
    negations) absent from the theorem list. With `close_with`, the system
    is re-run with that rule added and the report states whether every
    gap member is now enumerated.
    """
    overlap = system.rules & CLOSING_RULES
    if overlap:
        names = ", ".join(sorted(r.value for r in overlap))
        raise PreconditionViolated(
            f"base rule set must not contain case-split-style rules (found {names})"
        )
    if close_with is not None and close_with not in CLOSING_RULES:
        allowed = ", ".join(sorted(r.value for r in CLOSING_RULES))
        raise PreconditionViolated(f"close_with must be one of {allowed}")

    store = system.store
    result = saturate(system)
    witnesses = lbi_accepted(result)
    # Only the witnesses' conclusions, pivots and negated pivots are asked
    # about; intersecting with the theorem list walks it in C and builds
    # no set over every theorem.
    asked = {i for w in witnesses for i in (w.conclusion.index, w.pivot.index)}
    asked.update(store._lookup(NOT, w.pivot.index) for w in witnesses)
    enumerated = asked.intersection(result._indices)

    by_conclusion: dict[FormulaId, list[LbiWitness]] = {}
    for w in witnesses:
        if w.conclusion.index in enumerated:
            continue
        by_conclusion.setdefault(w.conclusion, []).append(w)

    members = []
    # Sorted already: witnesses come sorted by conclusion text, distinct per formula.
    for conclusion, group in by_conclusion.items():
        pivots = {w.pivot for w in group}
        verification = GapVerification(
            oracle_entailed=entails(system.axioms, conclusion, store).holds,
            pivot_independent_semantically=all(
                independent(system.axioms, x, store) for x in pivots
            ),
            pivot_absent_syntactically=all(
                x.index not in enumerated and store._lookup(NOT, x.index) not in enumerated
                for x in pivots
            ),
        )
        members.append(GapMember(conclusion, tuple(group), verification))

    closure = None
    gap_closed = None
    if close_with is not None:
        closure = saturate(system.with_rules(system.rules | {close_with}))
        wanted = {m.conclusion.index for m in members}
        gap_closed = wanted.intersection(closure._indices) == wanted

    return GapReport(
        system=system,
        enumerated=result,
        lbi_accepted=witnesses,
        gap=tuple(members),
        closure_rule=close_with,
        closure=closure,
        gap_closed=gap_closed,
    )


# ---------------------------------------------------------------------------
# Ready-made demonstration systems
# ---------------------------------------------------------------------------

class DemoVariant(enum.Enum):
    EQ1 = "EQ1"
    TWO_BRANCH = "TWO_BRANCH"


_DEMO_DOCUMENTS = {
    DemoVariant.EQ1: {"atoms": ["p", "q"], "axioms": ["(p | ~p) -> q"], "rules": ["MP"]},
    DemoVariant.TWO_BRANCH: {
        "atoms": ["rh", "y"], "axioms": ["rh -> y", "~rh -> y"], "rules": ["MP"],
    },
}


def demo_system(variant: DemoVariant | str) -> AxiomaticSystem:
    """Canned system whose gap report is nonempty under plain MP, loaded
    from its system document.

    EQ1: single axiom `(p | ~p) -> q`. The conclusion q is accepted with
    pivot p yet never enumerated, because neither p nor ~p is available.
    TWO_BRANCH: axioms `rh -> y` and `~rh -> y`; same phenomenon via the
    two-branch reading.
    """
    return load_system(json.dumps(_DEMO_DOCUMENTS[DemoVariant(variant)]))


def demo_family(n: int) -> AxiomaticSystem:
    """EQ1 generalized to n fresh pivots: axioms (p_i | ~p_i) -> q, loaded
    from its system document."""
    if n < 1:
        raise ValueError("n must be at least 1")
    names = [f"p{i}" for i in range(1, n + 1)]
    return load_system(json.dumps({
        "atoms": [*names, "q"],
        "axioms": [f"({name} | ~{name}) -> q" for name in names],
        "rules": ["MP"],
    }))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _run_document(result: EnumerationResult) -> dict:
    return {
        "theorems": _texts_of(result._indices, result._store),
        "stats": result.stats._asdict(),
    }


def report_document(report: GapReport) -> dict:
    """JSON-ready report with a fixed field order (byte-deterministic)."""
    store = report.system.store
    return {
        "base": _run_document(report.enumerated),
        "lbi_accepted": [
            {
                "conclusion": render(w.conclusion, store),
                "pivot": render(w.pivot, store),
                "mode": w.mode.value,
                "sources": list(w.source_indices),
            }
            for w in report.lbi_accepted
        ],
        "gap": [
            {
                "conclusion": render(m.conclusion, store),
                "witnesses": [
                    {"pivot": render(w.pivot, store), "mode": w.mode.value}
                    for w in m.witnesses
                ],
                "verification": m.verification._asdict(),
            }
            for m in report.gap
        ],
        "closure": (
            None
            if report.closure is None
            else {
                "rule": report.closure_rule.value,
                **_run_document(report.closure),
            }
        ),
        "gap_closed": report.gap_closed,
    }
