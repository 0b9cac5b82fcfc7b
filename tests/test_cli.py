from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lemgap import cli
from lemgap.cli import MAX_SYSTEM_BYTES, main
from lemgap.engine import RuleKind
from lemgap.formula import FormulaStore

from cli_corpus import S9, _cases, read_pins, write_files


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def eq1_file(tmp_path, capsys):
    path = tmp_path / "eq1.json"
    code, _, _ = run(capsys, "demo", "--variant", "EQ1", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def two_branch_file(tmp_path, capsys):
    path = tmp_path / "two_branch.json"
    code, _, _ = run(capsys, "demo", "--variant", "TWO_BRANCH", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"axioms": ["p", "p -> q"], "rules": ["MP"]}))
    return str(path)


# --- parse ---------------------------------------------------------------------

def test_parse_text_output(capsys):
    code, out, err = run(capsys, "parse", "(p|~p)->q")
    assert code == 0
    assert out == "(p | ~p) -> q\nsize: 6\natoms: p, q\n"


def test_parse_atom(capsys):
    code, out, _ = run(capsys, "parse", "p")
    assert code == 0
    assert out.splitlines()[0] == "p"
    assert "size: 1" in out


def test_parse_machine_output_round_trips(capsys):
    code, out, _ = run(capsys, "parse", "--format", "machine", "(p|~p)->q")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"formula": "(p | ~p) -> q", "size": 6, "atoms": ["p", "q"]}


def test_parse_error_exit_code_and_offset(capsys):
    code, out, err = run(capsys, "parse", "p->")
    assert code == 2
    assert out == ""
    assert "offset 3" in err


# --- classify ------------------------------------------------------------------

def test_classify_tautology(capsys):
    code, out, _ = run(capsys, "classify", "p|~p")
    assert code == 0
    assert out == "Tautology\n"


def test_classify_contradiction_and_contingent(capsys):
    assert run(capsys, "classify", "p&~p")[1] == "Contradiction\n"
    assert run(capsys, "classify", "p->q")[1] == "Contingent\n"


def test_classify_independent_against_system(capsys, eq1_file):
    code, out, _ = run(capsys, "classify", "--independent", "p", "--system", eq1_file)
    assert code == 0
    assert out == "independent: true\n"


def test_classify_entails_against_system(capsys, eq1_file):
    code, out, _ = run(capsys, "classify", "--entails", "q", "--system", eq1_file)
    assert code == 0
    assert out == "entailed: true\n"
    code, out, _ = run(capsys, "classify", "--entails", "p", "--system", eq1_file)
    assert code == 0
    assert out.splitlines()[0] == "entailed: false"
    assert out.splitlines()[1].startswith("countermodel:")


def test_classify_atom_limit_exit_code(capsys):
    formula = "|".join(f"x{i}" for i in range(21))
    code, _, err = run(capsys, "classify", formula)
    assert code == 4
    assert "limit" in err


def test_classify_entails_atom_limit_against_system(capsys, tmp_path):
    # The count names the combined atom set: axioms plus query.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "axioms": [" | ".join(f"x{i}" for i in range(21))],
        "rules": ["MP"],
        "bounds": {"max_formula_size": 60},
    }))
    for query, count in (("x0", 21), ("y", 22)):
        for mode in ("--entails", "--independent"):
            code, out, err = run(capsys, "classify", "--system", str(path), mode, query)
            assert (code, out) == (4, "")
            assert err == f"error: {count} atoms exceed the oracle limit of 20\n"


def test_classify_requires_formula_or_flag(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1


# --- enumerate -------------------------------------------------------------------

def test_enumerate_eq1(capsys, eq1_file):
    code, out, _ = run(capsys, "enumerate", "--system", eq1_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "(p | ~p) -> q" in lines[0]
    assert "fixed point reached" in lines[1]


def test_enumerate_chain(capsys, chain_file):
    code, out, _ = run(capsys, "enumerate", "--system", chain_file)
    assert code == 0
    body = out.splitlines()
    assert len(body) == 4
    assert "MP" in body[2] and body[2].strip().endswith("q")


def test_enumerate_machine_round_trips(capsys, chain_file):
    code, out, _ = run(capsys, "enumerate", "--format", "machine", "--system", chain_file)
    assert code == 0
    doc = json.loads(out)
    assert [t["formula"] for t in doc["theorems"]] == ["p", "p -> q", "q"]
    assert [t["generation"] for t in doc["theorems"]] == [0, 0, 1]
    assert doc["stats"]["fixed_point_reached"] is True


def test_enumerate_unknown_rule_field_named(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"axioms": [], "rules": ["FROB"]}))
    code, out, err = run(capsys, "enumerate", "--system", str(path))
    assert code == 1
    assert "rules[0]" in err


def test_enumerate_missing_system_flag(capsys):
    code, _, err = run(capsys, "enumerate")
    assert code == 1
    assert "--system" in err


def test_enumerate_missing_file(capsys):
    code, _, err = run(capsys, "enumerate", "--system", "/nonexistent/x.json")
    assert code == 1


def test_system_file_byte_limit(capsys, tmp_path):
    # Trailing whitespace pads a valid document to the cap and one byte past it.
    doc = json.dumps({"axioms": ["p", "p -> q"], "rules": ["MP"]}).encode("utf-8")
    at_limit = tmp_path / "at_limit.json"
    at_limit.write_bytes(doc + b" " * (MAX_SYSTEM_BYTES - len(doc)))
    code, out, err = run(capsys, "enumerate", "--system", str(at_limit))
    assert (code, err) == (0, "")
    assert "fixed point reached" in out
    over_limit = tmp_path / "over_limit.json"
    over_limit.write_bytes(doc + b" " * (MAX_SYSTEM_BYTES + 1 - len(doc)))
    code, out, err = run(capsys, "enumerate", "--system", str(over_limit))
    assert (code, out) == (1, "")
    assert err == f"error: document: system file larger than {MAX_SYSTEM_BYTES} bytes\n"


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{", b'{"axioms": ["p"], "rules": ["MP"], "atoms": ["p\xe9"]}'],
    ids=["utf16-bom", "latin1-atom"],
)
def test_system_file_not_utf8(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "enumerate", "--system", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: document: system file is not valid UTF-8: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        '{"axioms": [' + "[" * 200_000 + "]" * 200_000 + "]}",
        '{"axioms": ["p"], "bounds": {"max_generations": 1' + "0" * 4_999 + "}}",
    ],
    ids=["nested-200000-deep", "integer-5000-digits"],
)
def test_system_file_json_decoder_limits(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "enumerate", "--system", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: document: invalid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# A key is quoted in the message when it is not printable, so the message
# stays one line.
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"a\nb": 1}, "error: 'a\\nb': unknown key\n"),
        ({"bounds": {"max\ntheorems": 1}}, "error: 'bounds.max\\ntheorems': unknown key\n"),
    ],
)
def test_unknown_key_with_a_newline_is_one_stderr_line(capsys, tmp_path, doc, message):
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "enumerate", "--system", str(path)) == (1, "", message)


def test_enumerate_max_size_override(capsys, tmp_path):
    path = tmp_path / "grow.json"
    path.write_text(json.dumps({"axioms": ["p", "q"], "rules": ["AND_INTRO"]}))
    code, out, _ = run(
        capsys, "enumerate", "--system", str(path), "--max-size", "3", "--format", "machine"
    )
    assert code == 0
    formulas = [t["formula"] for t in json.loads(out)["theorems"]]
    assert all(len(f.split()) <= 3 for f in formulas)
    # Overriding below an axiom's size is a config error.
    code, _, err = run(capsys, "enumerate", "--system", str(path), "--max-size", "0")
    assert code == 1


# --- prove ----------------------------------------------------------------------

def test_prove_chain_goal(capsys, chain_file):
    code, out, _ = run(capsys, "prove", "--system", chain_file, "--goal", "q")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert "AXIOM" in lines[0] and "MP" in lines[2]


def test_prove_eq1_goal_unreachable(capsys, eq1_file):
    code, out, err = run(capsys, "prove", "--system", eq1_file, "--goal", "q")
    assert code == 3
    assert out == ""
    assert "fixed point reached without goal" in err


def test_prove_not_derived_within_bounds(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(
        json.dumps(
            {
                "axioms": ["a", "a -> b", "b -> c"],
                "rules": ["MP"],
                "bounds": {"max_generations": 1},
            }
        )
    )
    code, _, err = run(capsys, "prove", "--system", str(path), "--goal", "c")
    assert code == 3
    assert "not derived within bounds" in err


@pytest.mark.parametrize(
    "bounds, reason",
    [({"max_generations": 1}, "max_generations"), ({"max_theorems": 3}, "max_theorems")],
)
def test_text_output_names_the_bound_that_stopped_the_run(capsys, tmp_path, bounds, reason):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"axioms": ["a", "a -> b", "b -> c"], "bounds": bounds}))
    code, out, _ = run(capsys, "enumerate", "--system", str(path))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{reason} reached after ")
    code, _, err = run(capsys, "prove", "--system", str(path), "--goal", "c")
    assert code == 3
    assert f"goal not derived within bounds ({reason})" in err


def test_prove_eq1_with_lbi_rule(capsys, tmp_path):
    path = tmp_path / "lbi.json"
    path.write_text(json.dumps({"axioms": ["(p | ~p) -> q"], "rules": ["MP", "LBI_RULE"]}))
    code, out, _ = run(capsys, "prove", "--system", str(path), "--goal", "q")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "AXIOM" in lines[0] and "LBI_RULE" in lines[1]


def test_prove_machine_output(capsys, chain_file):
    code, out, _ = run(
        capsys, "prove", "--format", "machine", "--system", chain_file, "--goal", "q"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["goal"] == "q"
    assert [s["rule"] for s in doc["steps"]] == ["AXIOM", "AXIOM", "MP"]
    assert doc["steps"][2]["premises"] == [0, 1]


# --- gap ------------------------------------------------------------------------

def test_gap_eq1_close_with_lbi(capsys, eq1_file):
    code, out, _ = run(capsys, "gap", "--system", eq1_file, "--close-with", "LBI_RULE")
    assert code == 0
    assert "gap (1):" in out
    assert "gap_closed=true" in out


def test_gap_empty_for_plain_system(capsys, chain_file):
    code, out, _ = run(capsys, "gap", "--system", chain_file)
    assert code == 0
    assert "gap (0):" in out


def test_gap_two_branch_case_split(capsys, two_branch_file):
    code, out, _ = run(
        capsys, "gap", "--system", two_branch_file, "--close-with", "CASE_SPLIT"
    )
    assert code == 0
    assert "TWO_BRANCH" in out
    assert "gap_closed=true" in out


def test_gap_machine_round_trips(capsys, eq1_file):
    code, out, _ = run(
        capsys, "gap", "--format", "machine", "--system", eq1_file,
        "--close-with", "LEM_AXIOM",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"][0]["conclusion"] == "q"
    assert doc["gap_closed"] is True


def test_gap_precondition_violation(capsys, tmp_path):
    path = tmp_path / "lem.json"
    path.write_text(json.dumps({"axioms": ["(p | ~p) -> q"], "rules": ["MP", "LEM_AXIOM"]}))
    code, _, err = run(capsys, "gap", "--system", str(path))
    assert code == 1
    assert "case-split" in err


def test_out_of_memory_exit_code(capsys, eq1_file, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "gap_report", exhausted)
    assert run(capsys, "gap", "--system", eq1_file) == (5, "", "error: out of memory\n")


# --- demo -----------------------------------------------------------------------

def test_demo_writes_loadable_file(capsys, tmp_path):
    path = tmp_path / "demo.json"
    code, out, _ = run(capsys, "demo", "--variant", "EQ1", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["axioms"] == ["(p | ~p) -> q"]
    assert doc["rules"] == ["MP"]


def test_demo_two_branch_axioms(capsys, tmp_path):
    path = tmp_path / "demo.json"
    code, _, _ = run(capsys, "demo", "--variant", "TWO_BRANCH", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["axioms"] == ["rh -> y", "~rh -> y"]


def test_demo_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "demo.json"
    code, _, err = run(capsys, "demo", "--variant", "EQ1", "--out", str(target))
    assert code == 1
    assert "cannot write" in err


def test_demo_machine_prints_document(capsys, tmp_path):
    path = tmp_path / "demo.json"
    code, out, _ = run(
        capsys, "demo", "--format", "machine", "--variant", "EQ1", "--out", str(path)
    )
    assert code == 0
    assert json.loads(out)["axioms"] == ["(p | ~p) -> q"]


# (command, option, the error it gives): each command rejects the options
# it does not read. Neither `parse` nor `demo` loads a system, and
# `classify` bounds no run and reads a system only with a mode flag.
_UNREAD_OPTIONS = [
    *(
        (command, option, "unrecognized arguments: " + " ".join(option))
        for command in ("parse", "demo")
        for option in (["--system", "s.json"], ["--max-size", "3"], ["--max-generations", "2"])
    ),
    ("classify", ["--max-size", "3"], "unrecognized arguments: --max-size 3"),
    ("classify", ["--max-generations", "2"], "unrecognized arguments: --max-generations 2"),
    ("classify", ["--system", "s.json"], "--system is read only with --entails or --independent"),
    (
        "classify", ["--entails", "q", "--system", "s.json"],
        "classify takes exactly one of a formula, --entails or --independent",
    ),
]


@pytest.mark.parametrize(
    "command, option, message", _UNREAD_OPTIONS,
    ids=[f"{command}-{option[0]}" for command, option, _ in _UNREAD_OPTIONS],
)
def test_parse_and_demo_take_no_system_options(
    capsys, tmp_path, monkeypatch, command, option, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text('{"axioms": ["p"]}')
    args = ["--variant", "EQ1", "--out", "d.json"] if command == "demo" else ["p|~p"]
    assert run(capsys, command, *args, *option) == (1, "", f"error: {message}\n")


def test_max_generations_override(capsys, tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps({"axioms": ["a", "a -> b", "b -> c"], "rules": ["MP"]}))
    code, out, _ = run(
        capsys, "enumerate", "--system", str(path), "--max-generations", "1",
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    formulas = [t["formula"] for t in doc["theorems"]]
    assert "b" in formulas and "c" not in formulas
    assert doc["stats"]["fixed_point_reached"] is False


# --- global behaviour -------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "gap", "--close-with", "BOGUS")
    assert code == 1


def test_unknown_command_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_warm_main_leaves_few_cyclic_objects(capsys):
    # The parser is built once per process; a rebuilt one would leave
    # about 230 objects in reference cycles on every call. The machine
    # output's encoder makes no closures, where `json.dump` with an indent
    # left 33 objects in cycles.
    argv = ("parse", "p -> q", "--format", "machine")
    assert run(capsys, *argv)[0] == 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code, _, _ = run(capsys, *argv)
        left = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert code == 0
    assert left == 0


@pytest.mark.parametrize(
    "glibc, calls", [(True, [(-3, 256 * 1024), (-1, 512 * 1024)]), (False, [])], ids=["glibc", "other"]
)
def test_main_pins_the_malloc_thresholds_once_on_glibc_only(capsys, monkeypatch, glibc, calls):
    # Left dynamic, glibc's mmap threshold rises after a run frees a large
    # block, and later runs in the process fill heap holes in a
    # layout-dependent order (see `cli._pin_malloc_thresholds`).
    seen = []

    class Libc:
        def __init__(self):
            self.mallopt = lambda param, value: seen.append((param, value))

    if glibc:
        Libc.gnu_get_libc_version = lambda self: b"2.36"
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cli._pin_malloc_thresholds.cache_clear()
    try:
        assert run(capsys, "parse", "p")[0] == 0
        assert run(capsys, "parse", "q")[0] == 0
    finally:
        cli._pin_malloc_thresholds.cache_clear()
    assert seen == calls


# --- the machine-output encoder ---------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1])
    | st.text()  # non-ASCII and control characters included
    | st.text(st.characters(max_codepoint=0x1F))
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=40,
)
# A string list longer than a chunk, with other values after it or not.
_LONG_LISTS = st.tuples(
    st.lists(st.text(max_size=4), min_size=1, max_size=3),
    st.lists(_SCALARS, max_size=3),
).map(lambda parts: parts[0] * (cli._CHUNK // len(parts[0]) + 1) + parts[1])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _VALUES | _LONG_LISTS, max_size=6) | _VALUES)
def test_emit_writes_the_bytes_of_json_dumps(doc):
    out = io.StringIO()
    cli._emit(doc, out)
    assert out.getvalue().encode() == (json.dumps(doc, indent=2) + "\n").encode()


# Formula texts with quotes, backslashes, control and non-ASCII characters.
_ROW_TEXTS = st.text(st.sampled_from('pq_~&|()-> "\\\x01\x7f\u00ac\u2227\U0001d4ab')) | st.text()
_PREMISES = st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=2).map(tuple)
_RULES = st.sampled_from([None, *RuleKind])


def _table_as_dicts(table):
    return [dict(zip(table.fields, (*row[:-1], list(row[-1])))) for row in table.rows]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_ROW_TEXTS, _RULES, _PREMISES, st.integers(0, 2**32 - 1)), max_size=8),
    st.booleans(),
    st.sampled_from(["top", "dict", "list"]),
)
def test_emit_writes_row_tables_as_json_dumps(steps, dated, where):
    table = cli._rows(
        [text for text, *_ in steps],
        [(rule, premises) for _, rule, premises, _ in steps],
        [generation for *_, generation in steps] if dated else None,
    )
    wrap = {"top": lambda x: x, "dict": lambda x: {"goal": "q", "steps": x}, "list": lambda x: [x]}
    out = io.StringIO()
    cli._emit(wrap[where](table), out)
    expected = json.dumps(wrap[where](_table_as_dicts(table)), indent=2) + "\n"
    assert out.getvalue().encode() == expected.encode()


def test_emit_writes_a_row_table_longer_than_a_chunk_in_chunks():
    n = cli._CHUNK + 1
    table = cli._rows(
        [f"a{i} -> \"\u00ac\"" for i in range(n)],
        [(RuleKind.MP, (i, 2**32 - 1)) if i % 3 else (None, ()) for i in range(n)],
        range(n),
    )
    writes = []
    out = io.StringIO()
    out.write = writes.append
    cli._emit({"theorems": table, "stats": {}}, out)
    expected = json.dumps({"theorems": _table_as_dicts(table), "stats": {}}, indent=2) + "\n"
    assert "".join(writes) == expected
    assert len(writes) == 2  # the full chunk, then the rest


def test_emit_writes_a_long_list_one_full_chunk_at_a_time():
    # Each full chunk is written as soon as it is done, so the pieces never
    # hold more than one chunk; the closing bracket is written last.
    doc = ["x"] * (3 * cli._CHUNK)
    writes = []
    out = io.StringIO()
    out.write = writes.append
    cli._emit(doc, out)
    assert "".join(writes) == json.dumps(doc, indent=2) + "\n"
    assert [piece.count('"x"') for piece in writes] == [cli._CHUNK] * 3 + [0]


@pytest.mark.parametrize(
    "doc", [1.5, (1, 2), {1: "a"}, {"a": [{"b": {None: 1}}]}, [b"x"], {"s": {"x"}}]
)
def test_emit_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._emit(doc, io.StringIO())


def test_repeated_runs_identical_same_process(capsys, eq1_file):
    first = run(capsys, "gap", "--format", "machine", "--system", eq1_file,
                "--close-with", "LBI_RULE")
    second = run(capsys, "gap", "--format", "machine", "--system", eq1_file,
                 "--close-with", "LBI_RULE")
    assert first == second


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_enumerate_builds_no_id_per_theorem(capsys, tmp_path, monkeypatch, fmt):
    # `enumerate` renders the run's index columns. The only ids it builds
    # are the 4 parsed axioms' and the 10 universe members' of S7, not one
    # per theorem (6,300).
    built = []
    ids, one = FormulaStore._ids, FormulaStore._id

    def counted_ids(self, indices):
        out = ids(self, indices)
        built.extend(out)
        return out

    def counted_id(self, i):
        built.append(one(self, i))
        return built[-1]

    monkeypatch.setattr(FormulaStore, "_ids", counted_ids)
    monkeypatch.setattr(FormulaStore, "_id", counted_id)
    path = tmp_path / "s7.json"
    path.write_text(json.dumps({**S9, "bounds": {"max_formula_size": 7}}))
    code, out, err = run(capsys, "enumerate", "--format", fmt, "--system", str(path))
    assert code == 0, err
    rows = json.loads(out)["theorems"] if fmt == "machine" else out.splitlines()[:-1]
    assert len(rows) == 6300
    assert len(built) == 14


# --- malformed system documents ----------------------------------------------------

_DOC_SCALARS = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers(-(10**40), 10**40)
    # 4,001 digits: under the int-string limit of json.dumps, unlike 5,000.
    | st.sampled_from([1, -1]).map(lambda sign: sign * 10**4000)
)
_JSON = st.recursive(
    _DOC_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
def _mostly(valid, junk):
    """`valid` five times in six, `junk` otherwise."""
    return st.integers(0, 5).flatmap(lambda k: junk if k == 0 else valid)


_FORMULA_TEXT = st.recursive(
    st.sampled_from(["p", "q", "r", "s"]),
    lambda sub: sub.map("~{}".format)
    | st.tuples(sub, st.sampled_from([" & ", " | ", " -> ", "|"]), sub).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    ),
    max_leaves=6,
)
# Deep formulas on both sides of MAX_FORMULA_BYTES (16 KiB), and bad ones.
_BAD_FORMULA = st.text(max_size=8) | st.sampled_from(["P", "p ->", "(p", ""]) | st.builds(
    lambda op, n: op * n + "p" + ")" * n * (op == "("),
    st.sampled_from(["~", "("]), st.integers(1, 20_000),
)
# `p` itself often, so that `prove --goal p` often succeeds.
_FORMULAS = _mostly(
    st.lists(_mostly(st.just("p") | _FORMULA_TEXT, _BAD_FORMULA | _JSON), max_size=4), _JSON
)
_FIELDS = {
    "atoms": _mostly(
        st.lists(st.sampled_from(["p", "q", "r", "s"]), max_size=4),
        _JSON | st.lists(st.sampled_from(["p", "P", "", "p q", "x1"]), max_size=4),
    ),
    "axioms": _FORMULAS,
    "side_formulas": _FORMULAS,
    "rules": _mostly(
        st.lists(_mostly(st.sampled_from([r.value for r in RuleKind]), _JSON), max_size=4),
        _JSON,
    ),
}
# Each bound is junk (anything but a positive int) or a small positive int,
# never left to its default, so that every run stays short.
_JUNK_BOUND = _JSON.filter(lambda v: not (type(v) is int and v > 0))
_BOUNDS = _mostly(
    st.fixed_dictionaries(
        {
            "max_formula_size": _mostly(st.integers(1, 7), _JUNK_BOUND),
            "max_generations": _mostly(st.integers(1, 4), _JUNK_BOUND),
            "max_theorems": _mostly(st.integers(1, 60), _JUNK_BOUND),
        }
    ),
    _DOC_SCALARS | st.lists(_JSON, max_size=3),
)


@st.composite
def _system_texts(draw):
    """The text of a system file: mostly a document with arbitrary JSON in
    some of its fields, sometimes a deeply nested one, junk JSON or not
    JSON at all."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(st.text(max_size=20))
    if shape == 1:
        return json.dumps(draw(_JSON))
    doc = {"bounds": draw(_BOUNDS)}
    for key, values in _FIELDS.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    if shape == 2:
        doc[draw(st.text(max_size=6))] = draw(_JSON)
    text = json.dumps(doc)
    if shape == 3:
        n = draw(st.integers(1, 100_000))
        text = text[:-1] + ', "axioms": ' + "[" * n + "]" * n + "}"
    return text


@settings(max_examples=100, deadline=None)
@given(text=_system_texts(), fmt=st.sampled_from(["text", "machine"]))
def test_malformed_system_documents_end_in_an_exit_code(tmp_path_factory, text, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "system.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    for argv in (["enumerate"], ["gap"], ["prove", "--goal", "p"], ["classify", "--entails", "p"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt, "--system", str(path)])
        assert code in (0, 1, 2, 3, 4), (argv, code)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err)
        else:
            assert err.getvalue() == "", (argv, err)


# --- golden corpus ----------------------------------------------------------------

PINS = read_pins()


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_cli_corpus(capsys, tmp_path, monkeypatch, case):
    # Exit code, stdout digest and exact stderr of each case, as
    # `tests/cli_corpus.py` pinned them. Machine output that prints
    # anything must also be the stdlib's `json.dumps(..., indent=2)` of
    # its own document, byte for byte, which no digest shows by itself.
    case_id, files, argv = case
    write_files(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert {"exit": code, "stdout_sha256": digest, "stderr": err} == PINS[case_id]
    if out and ("--format", "machine") in zip(argv, argv[1:]):
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_corpus_file_holds_every_case_of_its_writer():
    # A case added to `tests/cli_corpus.py` but not pinned in the file
    # would otherwise fail only as a missing key; a pin whose case is gone
    # would go unread.
    assert list(PINS) == [case_id for case_id, _, _ in _cases()]
