from __future__ import annotations

import ast
import copy
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lemgap
from lemgap import engine, formula, gap, oracle
from lemgap.engine import AxiomTooLarge, Bounds, ConfigError, InvalidStep, RuleKind, saturate
from lemgap.formula import And, Atom, Implies, Not, Or
from lemgap.gap import demo_system, gap_report

_MODULES = (formula, oracle, engine, gap)


def test_package_exports_each_modules_public_names():
    names = [name for module in _MODULES for name in module.__all__]
    assert lemgap.__all__ == names
    assert len(set(names)) == len(names)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(lemgap, name) is getattr(module, name)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh, isolated interpreter (`-I` ignores PYTHONPATH, `-S` skips
    # site), pointed at this checkout's sources: importing `dataclasses`
    # pulls in `inspect`, `ast`, `dis` and `tokenize`, most of the import.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import lemgap.cli; "
        "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_the_readme_library_example_prints_what_its_comments_say(tmp_path):
    # The ```python block under the README's "Library use", run as a
    # script from outside the checkout: each `print(...)` line ends in a
    # comment giving the line it prints.
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme.split("## Library use", 1)[1], re.S)[1]
    expected = [
        line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert expected == ["['q']", "True"]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert out.stdout.splitlines() == expected


# Run under `python -O`, which strips `assert` statements: each forged id
# must still be refused, by an explicit raise. Prints one line per call.
_OPTIMIZED_ID_CHECKS = """
from lemgap import *
store = FormulaStore()
f = parse("a & b", store)
system = AxiomaticSystem(store, ("a", "b"), (f,), frozenset())
forged = {
    "foreign": parse("q & r", FormulaStore()),
    "index-len": FormulaId(len(store), store._tag),
    "plain-tuple": (1, store._tag),
}
entries = {
    "render": lambda g: render(g, store),
    "entails": lambda g: entails(system.axioms, g, store),
    "AxiomaticSystem": lambda g: AxiomaticSystem(store, ("a", "b"), (g,), frozenset()),
    "check_proof": lambda g: check_proof([ProofStep(g, None, ())], system),
}
print(__debug__)
for entry, call in entries.items():
    for forge, g in forged.items():
        try:
            print(entry, forge, "returned", repr(call(g)))
        except Exception as exc:
            print(entry, forge, type(exc).__name__)
"""


def test_the_package_has_no_assert_statement():
    # `python -O` strips `assert` statements; every check in the package
    # is an explicit raise, so that it survives.
    package = Path(__file__).resolve().parent.parent / "src" / "lemgap"
    sources = sorted(package.glob("*.py"))
    assert {path.stem for path in sources} >= {"cli", "engine", "formula", "gap", "oracle"}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_forged_ids_are_refused_under_python_dash_o():
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r})\n" + _OPTIMIZED_ID_CHECKS
    out = subprocess.run(
        [sys.executable, "-O", "-B", "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1:] == [
        f"{entry} {forge} AssertionError"
        for entry in ("render", "entails", "AxiomaticSystem", "check_proof")
        for forge in ("foreign", "index-len", "plain-tuple")
    ]


def _records():
    """One instance of each of the package's 14 records."""
    report = gap_report(demo_system("EQ1"), close_with=RuleKind.LBI_RULE)
    store = report.system.store
    p, q = store.atom("p"), store.atom("q")
    member = report.gap[0]
    return [
        Atom("p"), Not(p), And(p, q), Or(p, q), Implies(p, q),
        report.system.bounds, report.system, report.enumerated.stats, report.enumerated,
        InvalidStep(0, "reason"),
        member.witnesses[0], member.verification, member, report,
    ]


def test_records_are_immutable_and_name_their_fields():
    records = _records()
    assert len({type(record) for record in records}) == 14
    for record in records:
        name = type(record)._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is value
        assert record._replace() == record and hash(record._replace()) == hash(record)
        assert copy.copy(record) == record
        assert list(record._asdict()) == list(type(record)._fields)


def test_a_record_equals_only_a_record_of_its_own_class():
    # Unlike a NamedTuple, a record never equals the tuple of its values.
    assert Bounds() == Bounds(12, 50, 100_000)
    assert Bounds() != (12, 50, 100_000) and not Bounds() == (12, 50, 100_000)
    assert Bounds().__eq__((12, 50, 100_000)) is NotImplemented


def test_a_result_repr_leaves_out_its_private_fields():
    # A result's store and step table are not part of what it shows.
    assert repr(saturate(demo_system("EQ1"))) == (
        "EnumerationResult(generations=(0,), stats=Stats(generations_run=1, "
        "fixed_point_reached=True, rule_applications=0, dedup_hits=0), "
        "stop_reason='fixed_point')"
    )


def test_validating_records_check_every_construction_replace_included():
    with pytest.raises(ConfigError, match="bounds.max_formula_size: must be a positive integer"):
        Bounds()._replace(max_formula_size=0)
    with pytest.raises(ConfigError, match="bounds.max_theorems: must be an integer"):
        Bounds(max_theorems=2.5)
    system = demo_system("EQ1")
    with pytest.raises(AxiomTooLarge, match="axioms.0.: size 6 exceeds max_formula_size 3"):
        system._replace(bounds=Bounds(max_formula_size=3))
    assert system.with_rules({RuleKind.MP}) == system


def test_stats_keep_their_field_order():
    stats = saturate(demo_system("EQ1")).stats
    assert list(stats._asdict()) == [
        "generations_run", "fixed_point_reached", "rule_applications", "dedup_hits"
    ]
    assert list(Bounds()._asdict()) == ["max_formula_size", "max_generations", "max_theorems"]


def test_every_name_the_benchmark_tracer_wraps_exists():
    # `perfbench/tracing.py` wraps each (module, attribute) pair of its
    # `WRAPPED` at the place its caller looks it up, reading the owner's
    # own `vars()`; a renamed target would fail only a traced benchmark
    # run. The table is read from the source, so `perfbench` is not
    # imported.
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    (wrapped,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["WRAPPED"]
    )
    assert wrapped
    for module, path, _ in wrapped:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = vars(owner)[part]
        assert callable(vars(owner).get(attr)), (module, path)
