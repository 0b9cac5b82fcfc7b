"""Command-line interface.

Commands: parse, classify, enumerate, prove, gap, demo. Results go to
stdout (text or machine-readable JSON, `--format`); diagnostics go to
stderr. Each command builds its result document once: the machine
output emits it, and the text output is a view of it, read from the
same strings and values. Exit codes: 0 success, 1 usage/config error (including a
system file over MAX_SYSTEM_BYTES, 1 MiB, or not valid UTF-8, and a
formula in it over MAX_FORMULA_BYTES, 16 KiB), 2 formula parse error
(including a formula argument over MAX_FORMULA_BYTES), 3 goal not
derived, 4 oracle atom limit exceeded, 5 out of memory (a last resort:
one stderr line, `error: out of memory`, instead of a traceback).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from .engine import (
    MAX_FORMULA_BYTES,
    AxiomaticSystem,
    Bounds,
    ConfigError,
    EnumerationResult,
    NotDerived,
    RuleKind,
    _formula_too_long,
    _rule_name,
    _unpack,
    check_proof,
    extract_proof,
    load_system,
    saturate,
    system_document,
)
from .formula import FormulaId, FormulaStore, ParseError, _texts_of, atoms_of, parse, render, size
from .gap import (
    CLOSING_RULES,
    DemoVariant,
    PreconditionViolated,
    demo_system,
    gap_report,
    report_document,
)
from .oracle import TooManyAtoms, classify, entails, independent

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_DERIVED = 3
EXIT_ORACLE_LIMIT = 4
EXIT_OUT_OF_MEMORY = 5

# Largest system file, in bytes; bounds what loading a system can parse.
MAX_SYSTEM_BYTES = 1 << 20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the exit taxonomy
    # reserves 2 for formula parse errors, so route usage errors to 1.
    def error(self, message: str):
        raise UsageError(message)


_quote = json.encoder.encode_basestring_ascii
# JSON text of each scalar type, by exact type.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# Items of a list encoded, and written, at a time.
_CHUNK = 4096


class _RowTable(NamedTuple):
    """A step table as output: the field names, and one tuple per step
    holding its fields in that order. A row's fields are ints, then the
    formula and rule texts, then the premises, a tuple of ints."""

    fields: tuple[str, ...]
    rows: list[tuple]


def _row_templates(fields: tuple[str, ...], rows: list[tuple], inner: str) -> list[str]:
    """The `%` template of a row of `fields` at indent `inner`, indexed by
    the number of premises, up to the most any row has: the ints by `%d`
    and the texts by `%s`, to be given quoted."""
    field = inner + "  "
    item = field + "  "
    specs = ["%d"] * (len(fields) - 3) + ["%s", "%s"]
    head = "{" + "".join(
        f"{field}{_quote(name)}: {spec}," for name, spec in zip(fields, specs)
    ) + f"{field}{_quote(fields[-1])}: "
    return [
        head + ("[" + item + ("," + item).join(["%d"] * n) + field + "]" if n else "[]")
        + inner + "}"
        for n in range(1 + max(len(row[-1]) for row in rows))
    ]


def _encode(value: object, newline: str, pieces: list[str], out: TextIO) -> None:
    """Append the JSON text of `value` to `pieces`, laid out as
    `json.dumps(value, indent=2)` lays it out; `newline` is a newline plus
    the current indent. A `_RowTable` is laid out as the list of its rows
    as dicts of its fields. A full chunk of list items or rows is written
    to `out`. Raises TypeError on any type but dict, list, `_RowTable`,
    str, int, bool and None, and on a key that is not a str."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        pieces.append(scalar(value))
    elif type(value) is list or type(value) is _RowTable:
        fields = None
        if type(value) is _RowTable:
            fields, value = value
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        # Each row of a row table is one `%` format, by templates built once.
        templates = None if fields is None else _row_templates(fields, value, inner)
        pieces.append("[" + inner)
        for start in range(0, len(value), _CHUNK):
            chunk = value[start:start + _CHUNK]
            if start:
                pieces.append(separator)
            if templates is not None:
                pieces.append(separator.join([
                    templates[len(premises)] % (*numbers, _quote(formula), _quote(rule), *premises)
                    for *numbers, formula, rule, premises in chunk
                ]))
            elif {str}.issuperset(map(type, chunk)):
                pieces.append(separator.join(map(_quote, chunk)))
            else:
                for k, item in enumerate(chunk):
                    if k:
                        pieces.append(separator)
                    _encode(item, inner, pieces, out)
            if len(chunk) == _CHUNK:
                out.write("".join(pieces))
                pieces.clear()
        pieces.append(newline + "]")
    elif type(value) is dict:
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(opening + _quote(key) + ": ")
            opening = "," + inner
            _encode(item, inner, pieces, out)
        pieces.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: object, out: Optional[TextIO] = None) -> None:
    """Write `doc` to `out` (stdout by default) as the bytes of
    `json.dump(doc, out, indent=2)` plus a newline, a `_RowTable` standing
    for the list of its rows as dicts. The bulk of a document, the lists of
    strings of a gap report or the row table of `enumerate` and `prove`, is
    encoded a chunk at a time by one `str.join`, each row of a table by one
    `%` format. Each full chunk is written as it is done, so the whole
    document is never one string. Unlike `json.dump` with an indent,
    which takes the stdlib's pure-Python encoder and leaves its closures in
    reference cycles on every call, this leaves no cyclic garbage."""
    out = sys.stdout if out is None else out
    pieces: list[str] = []
    _encode(doc, "\n", pieces, out)
    pieces.append("\n")
    out.write("".join(pieces))


def _parse_arg(text: str, store: FormulaStore) -> FormulaId:
    """Parse a formula given on the command line, at most MAX_FORMULA_BYTES long."""
    if _formula_too_long(text):
        raise ParseError(f"formula longer than {MAX_FORMULA_BYTES} bytes", MAX_FORMULA_BYTES)
    return parse(text, store)


def _stats_lines(result: EnumerationResult) -> str:
    stats = result.stats
    state = "fixed point reached" if stats.fixed_point_reached else f"{result.stop_reason} reached"
    return (
        f"{state} after {stats.generations_run} generation(s); "
        f"{stats.rule_applications} rule application(s), {stats.dedup_hits} dedup hit(s)"
    )


def _load(args) -> AxiomaticSystem:
    if not args.system:
        raise UsageError("--system FILE is required for this command")
    with open(args.system, "rb") as handle:
        data = handle.read(MAX_SYSTEM_BYTES + 1)
    if len(data) > MAX_SYSTEM_BYTES:
        raise ConfigError("document", f"system file larger than {MAX_SYSTEM_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("document", f"system file is not valid UTF-8: {exc}") from None
    system = load_system(text)
    # The bound overrides given, under their `Bounds` field names.
    overrides = {name: value for name, value in vars(args).items() if name in Bounds._fields}
    if overrides:
        system = system._replace(bounds=system.bounds._replace(**overrides))
    return system


def _rows(
    texts: Iterable[str], pairs: Iterable[tuple], generations: Optional[Sequence[int]] = None
) -> _RowTable:
    """The row table of a step table: the formula texts and the aligned
    (rule, premises) pairs, and generation numbers when given. The fields
    come in the machine output's order: index, generation (when given),
    formula, rule, premises."""
    if generations is None:
        return _RowTable(("index", "formula", "rule", "premises"), [
            (i, formula, _rule_name(rule), premises)
            for i, (formula, (rule, premises)) in enumerate(zip(texts, pairs))
        ])
    return _RowTable(("index", "generation", "formula", "rule", "premises"), [
        (i, generation, formula, _rule_name(rule), premises)
        for i, (generation, formula, (rule, premises)) in enumerate(zip(generations, texts, pairs))
    ])


def _print_rows(table: _RowTable) -> None:
    """The text output of a step table, one line per row."""
    for index, *generation, formula, label, premises in table.rows:
        if premises:
            label += " " + ",".join(map(str, premises))
        gen = f"  gen {generation[0]}" if generation else ""
        print(f"{index:4d}{gen}  {label:<16} {formula}")


def cmd_parse(args) -> int:
    store = FormulaStore()
    f = _parse_arg(args.formula, store)
    doc = {"formula": render(f, store), "size": size(f, store), "atoms": list(atoms_of(f, store))}
    if args.format == "machine":
        _emit(doc)
    else:
        print(doc["formula"])
        print(f"size: {doc['size']}")
        print("atoms: " + ", ".join(doc["atoms"]))
    return EXIT_OK


def cmd_classify(args) -> int:
    if [args.formula, args.entails, args.independent].count(None) != 2:
        raise UsageError("classify takes exactly one of a formula, --entails or --independent")
    if args.formula is None:
        system = _load(args)
        store = system.store
        if args.entails is not None:
            verdict = entails(system.axioms, _parse_arg(args.entails, store), store)
            doc = {"entailed": verdict.holds, "countermodel": verdict.countermodel}
            lines = [f"entailed: {str(verdict.holds).lower()}"]
            if verdict.countermodel is not None:
                lines.append("countermodel: " + " ".join(
                    f"{name}={'T' if value else 'F'}"
                    for name, value in sorted(verdict.countermodel.items())
                ))
        else:
            answer = independent(system.axioms, _parse_arg(args.independent, store), store)
            doc, lines = {"independent": answer}, [f"independent: {str(answer).lower()}"]
    elif args.system is not None:
        raise UsageError("--system is read only with --entails or --independent")
    else:
        store = FormulaStore()
        verdict = classify(_parse_arg(args.formula, store), store).value
        doc, lines = {"verdict": verdict}, [verdict]
    if args.format == "machine":
        _emit(doc)
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    system = _load(args)
    result = saturate(system)
    # The run's index columns; no id or proof step is built per theorem.
    texts = _texts_of(result._indices, system.store)
    rows = _rows(texts, map(_unpack, result._packed), result.generations)
    if args.format == "machine":
        _emit({"theorems": rows, "stats": result.stats._asdict()})
    else:
        _print_rows(rows)
        print(_stats_lines(result))
    return EXIT_OK


def cmd_prove(args) -> int:
    system = _load(args)
    goal = _parse_arg(args.goal, system.store)
    result = saturate(system)
    try:
        proof = extract_proof(result, goal)
    except NotDerived:
        if result.stats.fixed_point_reached:
            print("fixed point reached without goal", file=sys.stderr)
        else:
            print(f"goal not derived within bounds ({result.stop_reason})", file=sys.stderr)
        return EXIT_NOT_DERIVED
    failure = check_proof(proof, system)
    if failure is not None:  # pragma: no cover - replay of our own output
        print(f"internal error: extracted proof failed replay: {failure}", file=sys.stderr)
        return EXIT_USAGE
    store = system.store
    texts = _texts_of([conclusion.index for conclusion, _, _ in proof], store)
    rows = _rows(texts, ((rule, premises) for _, rule, premises in proof))
    if args.format == "machine":
        _emit({"goal": render(goal, store), "steps": rows})
    else:
        _print_rows(rows)
    return EXIT_OK


def cmd_gap(args) -> int:
    system = _load(args)
    close_with = RuleKind(args.close_with) if args.close_with else None
    report = gap_report(system, close_with)
    doc = report_document(report)
    if args.format == "machine":
        _emit(doc)
        return EXIT_OK
    print(f"base run: {len(doc['base']['theorems'])} theorem(s); "
          + _stats_lines(report.enumerated))
    print(f"lbi-accepted ({len(doc['lbi_accepted'])}):")
    for w in doc["lbi_accepted"]:
        print(f"  {w['conclusion']}  pivot {w['pivot']}  [{w['mode']}]  sources "
              + ",".join(map(str, w["sources"])))
    print(f"gap ({len(doc['gap'])}):")
    for member in doc["gap"]:
        print(f"  {member['conclusion']}")
        for w in member["witnesses"]:
            print(f"    pivot {w['pivot']} [{w['mode']}]")
        v = {key: str(flag).lower() for key, flag in member["verification"].items()}
        print(f"    oracle: entailed={v['oracle_entailed']} "
              f"pivot_independent={v['pivot_independent_semantically']} "
              f"pivot_absent={v['pivot_absent_syntactically']}")
    closure = doc["closure"]
    if closure is not None:
        print(f"closure with {closure['rule']}: {len(closure['theorems'])} theorem(s); "
              f"gap_closed={str(doc['gap_closed']).lower()}")
    return EXIT_OK


def cmd_demo(args) -> int:
    system = demo_system(DemoVariant(args.variant))
    doc = system_document(system)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            _emit(doc, handle)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "machine":
        _emit(doc)
    else:
        print(f"wrote {args.variant} system to {args.out}")
    return EXIT_OK


# Built on the first call, not at import, then reused: a parser is a web of
# reference cycles, so one per call would leave ~230 objects each time for
# the cyclic collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lemgap", description=__doc__)
    # Each command takes only the options it reads: `parse` and `demo`
    # take `--format` only; `classify` takes `--system` too, read with
    # `--entails` or `--independent`; the commands that run saturation
    # (`enumerate`, `prove`, `gap`) take the bound overrides as well. An
    # override is stored under its `Bounds` field name and only when
    # given, so `_load` applies exactly the ones present.
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("text", "machine"), default="text")
    systems = argparse.ArgumentParser(add_help=False, parents=[formats])
    systems.add_argument("--system", metavar="FILE")
    runs = argparse.ArgumentParser(add_help=False, parents=[systems])
    for flag, name in ("--max-size", "max_formula_size"), ("--max-generations", "max_generations"):
        runs.add_argument(flag, type=int, metavar="N", dest=name, default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[formats], help="parse and canonically re-render")
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("classify", parents=[systems], help="truth-table verdicts")
    p.add_argument("formula", nargs="?")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--entails", metavar="FORMULA")
    mode.add_argument("--independent", metavar="FORMULA")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", parents=[runs], help="run bottom-up saturation")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("prove", parents=[runs], help="extract a checked proof")
    p.add_argument("--goal", required=True, metavar="FORMULA")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("gap", parents=[runs], help="accepted-minus-enumerated report")
    p.add_argument(
        "--close-with",
        dest="close_with",
        choices=sorted(r.value for r in CLOSING_RULES),
    )
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("demo", parents=[formats], help="write a demonstration system file")
    p.add_argument("--variant", choices=[v.value for v in DemoVariant], required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_demo)

    return parser


# glibc's malloc maps a block of at least its mmap threshold on its own and
# unmaps it when freed. By default the threshold rises to the size of each
# mapped block freed, so after one run (a gap report's output alone is
# megabytes) the store's columns, its intern tables and the saturation's
# maps come from the heap in every later run in the same process, and fill
# its holes in an order set by the heap's layout: on s9-gap the peak RSS of
# repeated in-process runs then moved by up to 4 MB with small edits to the
# package, and from one process to the next. A fixed threshold keeps those
# containers mapped in every run. 256 KiB is twice the oracle's largest
# mask (2^20 bits at its atom limit), so masks stay on the heap, where a
# freed one is reused without a system call. The trim threshold, the free
# space the heap may keep at its top, is set to twice that, as glibc sets it
# when it moves the mmap threshold itself; left at its default, a freed mask
# is handed back to the system and faulted in again by the next one.
@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once;
    elsewhere a no-op."""
    libc = ctypes.CDLL(None) if sys.platform != "win32" else None
    if hasattr(libc, "gnu_get_libc_version"):
        mallopt = libc.mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 256 * 1024)  # M_MMAP_THRESHOLD
        mallopt(-1, 512 * 1024)  # M_TRIM_THRESHOLD


def main(argv: Optional[Sequence[str]] = None) -> int:
    _pin_malloc_thresholds()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, PreconditionViolated, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooManyAtoms as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_LIMIT
    except MemoryError:
        # A last resort: the handler runs once the frames that held the
        # memory have unwound, so the line can still be printed.
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
