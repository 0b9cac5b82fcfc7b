"""Determinism as a property: the machine output is a function of the
system as a set.

Permuting the axioms and side formulas, or interning unrelated formulas
into the store before the system's own, changes the store's indices and
the order in which saturation meets its premises, but not the `enumerate
--format machine` output or the `gap` report. A repeated axiom changes only
`dedup_hits`, by one per repeat. The corpus pins fix the output on fixed
inputs; this states the contract that keeps those pins stable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from lemgap import cli
from lemgap.engine import AxiomaticSystem, RuleKind
from lemgap.formula import FormulaStore, parse, render
from lemgap.gap import CLOSING_RULES

from support import random_formula, random_system

_SPLIT_RULES = (RuleKind.LBI_RULE, RuleKind.CASE_SPLIT)


def _machine_output(system: AxiomaticSystem, *argv: str) -> str:
    """The stdout of `lemgap <argv> --format machine` run on `system`."""
    out = io.StringIO()
    with mock.patch.object(cli, "_load", lambda args: system), contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--system", "-", "--format", "machine"]) == 0
    return out.getvalue()


def _copy(
    system: AxiomaticSystem, rng: random.Random, unrelated: int = 0, repeats: int = 0
) -> AxiomaticSystem:
    """`system` in a fresh store: `unrelated` random formulas interned
    first, then the axioms and side formulas, each list shuffled, with
    `repeats` axioms given a second time."""
    texts = [render(f, system.store) for f in system.axioms]
    side = [render(f, system.store) for f in system.side_formulas]
    texts += rng.sample(texts, repeats)
    rng.shuffle(texts)
    rng.shuffle(side)
    store = FormulaStore()
    for _ in range(unrelated):
        random_formula(rng, ("a", "b", "c", "z"), rng.randint(1, 7), store)
    return AxiomaticSystem(
        store=store,
        atoms=system.atoms,
        axioms=tuple(parse(t, store) for t in texts),
        rules=system.rules,
        side_formulas=tuple(parse(t, store) for t in side),
        bounds=system.bounds,
    )


def _less_dedup_hits(output: str, repeats: int, *runs: str) -> dict:
    """The document of `output` with `repeats` taken off the `dedup_hits`
    of each run named in `runs` ("" for the document's own stats)."""
    doc = json.loads(output)
    for run in runs:
        part = doc[run] if run else doc
        if part is not None:
            part["stats"]["dedup_hits"] -= repeats
    return doc


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    split_rules=st.sets(st.sampled_from(_SPLIT_RULES)),
    close_with=st.sampled_from([None, *sorted(CLOSING_RULES, key=lambda r: r.value)]),
)
def test_output_is_a_function_of_the_system_as_a_set(seed, split_rules, close_with):
    rng = random.Random(seed)
    system = random_system(rng, extra_rules=frozenset(split_rules))
    store = system.store
    side = tuple(
        random_formula(rng, system.atoms, rng.randint(1, 3), store)
        for _ in range(rng.randint(0, 2))
    )
    system = system._replace(side_formulas=side)
    base = system.with_rules(system.rules - CLOSING_RULES)
    gap = ["gap", "--close-with", close_with.value] if close_with else ["gap"]
    for run, argv, runs in ((system, ["enumerate"], ("",)), (base, gap, ("base", "closure"))):
        expected = _machine_output(run, *argv)
        for unrelated in (0, 3):
            assert _machine_output(_copy(run, rng, unrelated), *argv) == expected
        repeats = rng.randint(0, len(run.axioms))
        repeated = _machine_output(_copy(run, rng, 3, repeats), *argv)
        assert _less_dedup_hits(repeated, repeats, *runs) == json.loads(expected)
