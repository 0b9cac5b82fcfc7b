"""Seeded inputs for the three benchmark workloads (stdlib only).

Seed 0 gives the canonical system: the atom names and axiom order written
below. Any other seed renames every atom (keeping each name's length, so
rendered text keeps its length too) and shuffles the axiom order. The
program only ever sees the generated system file and argv.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path

WORKLOADS = ("s9-gap", "family19-gap", "chain2000-prove")

_ATOM = re.compile(r"[a-z][a-z0-9_]*")
_GAP_ARGV = ["gap", "--close-with", "LBI_RULE", "--format", "machine"]
CHAIN_LENGTH = 2000
FAMILY_SIZE = 19


def canonical(workload: str) -> tuple[dict, list[str]]:
    """The seed-0 system document and the CLI argv (without --system)."""
    if workload == "s9-gap":
        doc = {
            "atoms": ["p", "q", "r", "s"],
            "axioms": ["p", "q -> r", "(p | ~p) -> q", "~s -> r"],
            "rules": ["MP", "AND_INTRO", "AND_ELIM_L", "AND_ELIM_R", "OR_INTRO"],
            "bounds": {"max_formula_size": 9, "max_theorems": 2_000_000},
        }
        return doc, list(_GAP_ARGV)
    if workload == "family19-gap":
        names = [f"p{i}" for i in range(1, FAMILY_SIZE + 1)]
        doc = {
            "atoms": [*names, "q"],
            "axioms": [f"({n} | ~{n}) -> q" for n in names],
            "rules": ["MP"],
        }
        return doc, list(_GAP_ARGV)
    if workload == "chain2000-prove":
        doc = {
            "axioms": ["a0"] + [f"a{i} -> a{i + 1}" for i in range(CHAIN_LENGTH)],
            "rules": ["MP"],
            "bounds": {"max_generations": CHAIN_LENGTH + 1},
        }
        return doc, ["prove", "--goal", f"a{CHAIN_LENGTH}", "--format", "machine"]
    raise ValueError(f"unknown workload {workload!r}")


def renaming(workload: str, seed: int) -> dict[str, str]:
    """Canonical atom name -> the name this seed uses (identity for seed 0)."""
    if workload == "s9-gap":
        canon = ["p", "q", "r", "s"]
    elif workload == "family19-gap":
        canon = [f"p{i}" for i in range(1, FAMILY_SIZE + 1)] + ["q"]
    else:
        canon = [f"a{i}" for i in range(CHAIN_LENGTH + 1)]
    if seed == 0:
        return {name: name for name in canon}
    rng = random.Random(f"{workload}/{seed}")
    if workload == "s9-gap":
        return dict(zip(canon, rng.sample(string.ascii_lowercase, len(canon))))
    # Indexed names: one fresh prefix letter, the same indices permuted.
    prefix, single = rng.sample(string.ascii_lowercase, 2)
    numbers = [name[1:] for name in canon if name[1:]]
    permuted = rng.sample(numbers, len(numbers))
    out = {old: prefix + new for old, new in zip((n for n in canon if n[1:]), permuted)}
    out.update({name: single for name in canon if not name[1:]})
    return out


def rename(text: str, mapping: dict[str, str]) -> str:
    return _ATOM.sub(lambda m: mapping[m.group()], text)


def generate(workload: str, seed: int) -> tuple[dict, list[str]]:
    """The system document and argv tail for one seed."""
    doc, argv = canonical(workload)
    if seed == 0:
        return doc, argv
    mapping = renaming(workload, seed)
    doc = dict(doc)
    axioms = [rename(ax, mapping) for ax in doc["axioms"]]
    random.Random(f"{workload}/{seed}/order").shuffle(axioms)
    doc["axioms"] = axioms
    if "atoms" in doc:
        doc["atoms"] = [mapping[a] for a in doc["atoms"]]
    if "--goal" in argv:
        i = argv.index("--goal") + 1
        argv[i] = rename(argv[i], mapping)
    return doc, argv


def write_inputs(workload: str, seed: int, workdir: Path) -> list[str]:
    """Write the system file into `workdir`; return the full CLI argv."""
    doc, argv = generate(workload, seed)
    path = workdir / "system.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return [argv[0], "--system", str(path), *argv[1:]]
