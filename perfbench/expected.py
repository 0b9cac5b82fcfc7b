"""Expected CLI outputs, from sources independent of the code under test.

- s9-gap: both theorem sets come from `tests/support.py:naive_closure`, the
  brute-force fixpoint the test suite treats as ground truth. It takes
  seconds, so its rendered result is cached under .perfbench_work/cache,
  keyed by the bytes of every file it depends on. Witnesses and the gap are
  recomputed here from that set by the definition in lemgap.gap's
  docstring, and the set is rendered by `_render` below, written from the
  documented canonical text format.
- family19-gap and chain2000-prove: facts written out by hand (reasoning
  beside each).
- The saturation counters (rule applications, dedup hits) have no second
  source: they are pinned from seed 0 at the commit that added this
  benchmark and were seen identical on seeds 0-12 of every workload.
- For seed 0 the whole stdout is pinned by SHA-256 as well, because the
  machine output must stay byte-identical.

Every fact is stated in canonical atom names and renamed for the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads

SEED0_SHA256 = {
    "s9-gap": "081bebb0390f3c667f42e1aabc7f67dfe46a45d4db0bd84cdb19b9d04c0bd50b",
    "family19-gap": "8e1dde58aace2f10a36f8932b41facc03bc68b5589fe61cd5badbff3b1b5355f",
    "chain2000-prove": "3e5c52ef3fa7348a78b2615f6181ae0d33850c14b9532eaa7f17684a3b021cd8",
}

# Atoms and negations bind tightest, then &, |, ->. A child whose level is
# below the level its slot demands is parenthesised; the antecedent slot of
# -> demands the & level, so `(p | ~p) -> q` keeps its parentheses.
_ATOM_LEVEL, _AND, _OR, _IMPLIES = 4, 3, 2, 1


def _render(f, store, memo: dict) -> tuple[str, int]:
    cached = memo.get(f)
    if cached is not None:
        return cached
    node = store.node(f)
    kind = type(node).__name__

    def slot(child, level):
        text, own = _render(child, store, memo)
        return f"({text})" if own < level else text

    if kind == "Atom":
        out = (node.name, _ATOM_LEVEL)
    elif kind == "Not":
        out = ("~" + slot(node.child, _ATOM_LEVEL), _ATOM_LEVEL)
    elif kind == "And":
        out = (slot(node.left, _AND) + " & " + slot(node.right, _ATOM_LEVEL), _AND)
    elif kind == "Or":
        out = (slot(node.left, _OR) + " | " + slot(node.right, _AND), _OR)
    else:
        out = (slot(node.antecedent, _AND) + " -> " + slot(node.consequent, _IMPLIES), _IMPLIES)
    memo[f] = out
    return out


def _witnesses(theorems: frozenset, store) -> set[tuple]:
    """(conclusion, pivot, mode) for every excluded-middle acceptance:
    a theorem `(x | ~x) -> y` or `(~x | x) -> y`, or both `x -> y` and
    `~x -> y` among the theorems."""
    implications = set()
    for f in theorems:
        node = store.node(f)
        if type(node).__name__ == "Implies":
            implications.add((node.antecedent, node.consequent))
    out = set()
    for ant, cons in implications:
        a = store.node(ant)
        kind = type(a).__name__
        if kind == "Or":
            left, right = store.node(a.left), store.node(a.right)
            if type(right).__name__ == "Not" and right.child == a.left:
                out.add((cons, a.left, "EQ1_SHAPE"))
            elif type(left).__name__ == "Not" and left.child == a.right:
                out.add((cons, a.right, "EQ1_SHAPE"))
        elif kind == "Not" and (a.child, cons) in implications:
            out.add((cons, a.child, "TWO_BRANCH"))
    return out


def _s9_canonical(root: Path, workdir: Path) -> dict:
    here = Path(__file__).resolve().parent
    sources = [root / "tests" / "support.py", here / "expected.py", here / "workloads.py"]
    sources += sorted((root / "src" / "lemgap").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    cache = workdir / "cache" / f"s9-{digest.hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))

    sys.path.insert(0, str(root / "tests"))
    from lemgap.engine import RuleKind, load_system
    from support import naive_closure

    doc, _ = workloads.canonical("s9-gap")
    system = load_system(json.dumps(doc))
    store, memo = system.store, {}
    base = naive_closure(system)
    closure = naive_closure(system.with_rules(system.rules | {RuleKind.LBI_RULE}))
    text = lambda f: _render(f, store, memo)[0]  # noqa: E731
    witnesses = _witnesses(base, store)
    facts = {
        "base": sorted(text(f) for f in base),
        "closure": sorted(text(f) for f in closure),
        "witnesses": sorted([text(c), text(p), mode] for c, p, mode in witnesses),
        "gap": sorted({text(c) for c, _, _ in witnesses if c not in base}),
    }
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(facts), encoding="utf-8")
    tmp.replace(cache)
    return facts


def _gap_facts(workload: str, root: Path, workdir: Path) -> dict:
    if workload == "s9-gap":
        canon = _s9_canonical(root, workdir)
        return {
            "base": canon["base"],
            # Pinned counters; the 8 and 7 generations are the closure's
            # breadth-first depth plus the final round that finds nothing.
            "base_stats": [8, True, 280954, 113512],
            "witnesses": [tuple(w) for w in canon["witnesses"]],
            "gap": {c: None for c in canon["gap"]},
            "closure": canon["closure"],
            "closure_stats": [7, True, 280955, 113513],
            "gap_closed": True,
        }
    # demo_family(19): axioms (p_i | ~p_i) -> q. No antecedent is ever a
    # theorem, so the base run is the 19 axioms after one empty round and no
    # rule applications. Each axiom witnesses q with pivot p_i, so the gap
    # is {q}: q is entailed (every antecedent is a tautology), each p_i is
    # independent (the axioms never constrain it) and neither p_i nor ~p_i
    # is a theorem. The LBI_RULE closure applies once per axiom, admits q
    # once (18 dedup hits) and stops after a second, empty round.
    pivots = [f"p{i}" for i in range(1, workloads.FAMILY_SIZE + 1)]
    base = [f"({p} | ~{p}) -> q" for p in pivots]
    return {
        "base": base,
        "base_stats": [1, True, 0, 0],
        "witnesses": [("q", p, "EQ1_SHAPE") for p in pivots],
        "gap": {"q": ({(p, "EQ1_SHAPE") for p in pivots}, (True, True, True))},
        "closure": base + ["q"],
        "closure_stats": [2, True, len(pivots), len(pivots) - 1],
        "gap_closed": True,
    }


class Expected:
    """Checks one workload's stdout for one seed; `problems` lists what is wrong."""

    def __init__(self, workload: str, seed: int, root: Path, workdir: Path):
        self.workload = workload
        self.seed = seed
        mapping = workloads.renaming(workload, seed)

        def rn(text: str) -> str:
            return workloads.rename(text, mapping)

        if workload == "chain2000-prove":
            # a0 and a_i -> a_(i+1), i < 2000, MP only: saturation admits one
            # atom per generation, so a2000 needs every axiom; the proof is
            # all 2,001 axioms plus the 2,000 derived atoms, 4,001 steps.
            doc, argv = workloads.generate(workload, seed)
            self.axioms = set(doc["axioms"])
            self.goal = argv[argv.index("--goal") + 1]
            self.steps = 2 * workloads.CHAIN_LENGTH + 1
            return
        facts = _gap_facts(workload, root, workdir)
        self.base = {rn(t) for t in facts["base"]}
        self.base_stats = facts["base_stats"]
        self.witnesses = {(rn(c), rn(p), m) for c, p, m in facts["witnesses"]}
        self.gap = {
            rn(c): None if v is None else ({(rn(p), m) for p, m in v[0]}, v[1])
            for c, v in facts["gap"].items()
        }
        self.closure = {rn(t) for t in facts["closure"]}
        self.closure_stats = facts["closure_stats"]
        self.gap_closed = facts["gap_closed"]

    def problems(self, data: bytes) -> list[str]:
        if self.seed == 0:
            if hashlib.sha256(data).hexdigest() != SEED0_SHA256[self.workload]:
                return ["stdout differs from the pinned seed-0 bytes"]
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        try:
            if self.workload == "chain2000-prove":
                return self._proof_problems(doc)
            return self._gap_problems(doc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _proof_problems(self, doc: dict) -> list[str]:
        out = []
        steps = doc["steps"]
        if doc["goal"] != self.goal:
            out.append(f"goal {doc['goal']!r}, expected {self.goal!r}")
        if len(steps) != self.steps:
            out.append(f"{len(steps)} proof steps, expected {self.steps}")
        if not steps or steps[-1]["formula"] != self.goal:
            out.append("the proof does not end with the goal")
        # Replay with string matching: every step is an axiom or MP on two
        # earlier steps i, j where step j reads `<step i> -> <conclusion>`.
        for k, step in enumerate(steps):
            premises = step["premises"]
            if step["index"] != k or any(not 0 <= p < k for p in premises):
                out.append(f"step {k}: bad index or premise order")
            elif step["rule"] == "AXIOM":
                if premises or step["formula"] not in self.axioms:
                    out.append(f"step {k}: not an axiom")
            elif step["rule"] != "MP" or len(premises) != 2:
                out.append(f"step {k}: unexpected rule {step['rule']}")
            elif steps[premises[1]]["formula"] != (
                f"{steps[premises[0]]['formula']} -> {step['formula']}"
            ):
                out.append(f"step {k}: MP premises do not match")
            if len(out) > 5:
                break
        return out

    def _gap_problems(self, doc: dict) -> list[str]:
        out = []

        def stats(run):
            s = run["stats"]
            return [s["generations_run"], s["fixed_point_reached"],
                    s["rule_applications"], s["dedup_hits"]]

        for label, run, theorems, expected_stats in (
            ("base", doc["base"], self.base, self.base_stats),
            ("closure", doc["closure"], self.closure, self.closure_stats),
        ):
            listed = run["theorems"]
            if len(listed) != len(theorems) or set(listed) != theorems:
                out.append(f"{label}: {len(listed)} theorems differ from the "
                           f"{len(theorems)} expected")
            if stats(run) != expected_stats:
                out.append(f"{label} stats {stats(run)}, expected {expected_stats}")
        if doc["closure"]["rule"] != "LBI_RULE":
            out.append(f"closure rule {doc['closure']['rule']!r}")
        witnesses = [(w["conclusion"], w["pivot"], w["mode"]) for w in doc["lbi_accepted"]]
        if len(witnesses) != len(self.witnesses) or set(witnesses) != self.witnesses:
            out.append(f"{len(witnesses)} witnesses differ from the {len(self.witnesses)} expected")
        members = {m["conclusion"]: m for m in doc["gap"]}
        if len(members) != len(doc["gap"]) or set(members) != set(self.gap):
            out.append(f"gap {sorted(members)}, expected {sorted(self.gap)}")
        else:
            for conclusion, (pivots, flags) in ((c, v) for c, v in self.gap.items() if v):
                member = members[conclusion]
                got = {(w["pivot"], w["mode"]) for w in member["witnesses"]}
                v = member["verification"]
                got_flags = (v["oracle_entailed"], v["pivot_independent_semantically"],
                             v["pivot_absent_syntactically"])
                if got != pivots or len(member["witnesses"]) != len(pivots):
                    out.append(f"gap member {conclusion}: witnesses differ")
                if got_flags != flags:
                    out.append(f"gap member {conclusion}: flags {got_flags}, expected {flags}")
        if doc["gap_closed"] is not self.gap_closed:
            out.append(f"gap_closed {doc['gap_closed']!r}, expected {self.gap_closed!r}")
        return out
