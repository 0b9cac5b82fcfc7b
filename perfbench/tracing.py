"""Span tracing around lemgap's layer boundaries, without editing lemgap.

`Tracer.install` replaces each name below at the place its caller looks it
up (a module global or a class attribute) with a wrapper that records a
span; `Tracer.uninstall` puts every original back. Spans live in memory
and are written out once, after the last op. `op_layers` turns them
into the per-layer metrics; every per-layer time is a self time (a span's
duration minus its child spans), so the times of one op never add up to
more than the op.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import time
from pathlib import Path

# (module, attribute, span name). Several lookups may share a span name.
WRAPPED = (
    ("lemgap.cli", "load_system", "load_system"),
    ("lemgap.cli", "saturate", "saturate"),
    ("lemgap.cli", "gap_report", "gap_report"),
    ("lemgap.cli", "report_document", "report_document"),
    ("lemgap.cli", "extract_proof", "extract_proof"),
    ("lemgap.cli", "check_proof", "check_proof"),
    ("lemgap.cli", "parse", "parse"),
    ("lemgap.engine", "parse", "parse"),
    ("lemgap.engine", "AxiomaticSystem.universe", "universe"),
    ("lemgap.gap", "saturate", "saturate"),
    ("lemgap.gap", "lbi_accepted", "lbi_accepted"),
    ("lemgap.gap", "entails", "entails"),
    ("lemgap.gap", "independent", "independent"),
    ("lemgap.oracle", "entails", "entails"),
)
_ORACLE = frozenset({"entails", "independent"})


def _owner(module: str, attr: str):
    """The object holding `attr` (a dotted path below `module`)."""
    owner = importlib.import_module(module)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _JsonProxy:
    """Stands in for the `json` module inside lemgap.cli with `dumps` traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent, op, attrs]; the op itself is a span
        # named "op" with parent -1.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self._store = None
        self._gc_start = 0.0
        self._gc_s = 0.0
        self._gc_n = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hooks: dict):
        spans, stack, hook = self.spans, self._stack, hooks.get(name)
        oracle = name in _ORACLE
        perf = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self._op, {}]
            spans.append(record)
            stack.append(index)
            faults = _minflt() if oracle else 0
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if oracle:
                record[5]["minflt"] = _minflt() - faults
            if hook is not None:
                hook(record[5], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        from lemgap.formula import atoms_of

        def saturate(attrs, args, result):
            attrs.update(
                theorems=len(result.theorems),
                generations=result.stats.generations_run,
                rule_applications=result.stats.rule_applications,
                dedup_hits=result.stats.dedup_hits,
            )

        def load_system(attrs, args, result):
            self._store = result.store

        def entails(attrs, args, result):
            axioms, f, store = args
            attrs["atoms"] = len({a for g in (*axioms, f) for a in atoms_of(g, store)})

        return {
            "saturate": saturate,
            "load_system": load_system,
            "entails": entails,
            "lbi_accepted": lambda attrs, args, result: attrs.update(witnesses=len(result)),
            "gap_report": lambda attrs, args, result: attrs.update(members=len(result.gap)),
            "extract_proof": lambda attrs, args, result: attrs.update(steps=len(result)),
        }

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_start
            self._gc_n += 1

    def install(self) -> None:
        import lemgap.cli

        hooks = self._hooks()
        for module, path, name in WRAPPED:
            owner, attr = _owner(module, path), path.rsplit(".", 1)[-1]
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hooks))
        original_json = lemgap.cli.json
        self._restore.append((lemgap.cli, "json", original_json))
        dumps = self._wrap("json.dumps", original_json.dumps, hooks)
        lemgap.cli.json = _JsonProxy(original_json, dumps)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for owner, attr, original in self._restore:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._restore.clear()

    # -- ops ------------------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self._store = None
        self._gc_s, self._gc_n = 0.0, 0
        self._stack[:] = [len(self.spans)]
        self.spans.append(["op", 0.0, 0.0, -1, self._op, {}])

    def end_op(self, start: float, end: float) -> None:
        record = self.spans[self._stack[0]]
        record[1], record[2] = start, end
        record[5].update(gc_s=self._gc_s, gc_collections=self._gc_n)
        if self._store is not None:
            record[5]["store_nodes"] = len(self._store)
        self._store = None
        self._stack.clear()

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics (computed by the driver from the written spans)
# ---------------------------------------------------------------------------

# name -> (unit, source). The source is the span a metric is read from;
# "saturate#2" is the second saturate call of an op (the closure re-run).
PER_LAYER = {
    "engine.saturate_base_s": ("s", "saturate"),
    "engine.saturate_closure_s": ("s", "saturate#2"),
    "engine.theorems_per_s": ("1/s", "saturate"),
    "engine.theorems_base": ("count", "saturate"),
    "engine.theorems_closure": ("count", "saturate#2"),
    "engine.generations": ("count", "saturate"),
    "engine.rule_applications": ("count", "saturate"),
    "engine.dedup_hits": ("count", "saturate"),
    "engine.admit_ratio": ("ratio", "saturate"),
    "engine.universe_s": ("s", "universe"),
    "engine.universe_calls": ("count", "universe"),
    "engine.extract_proof_s": ("s", "extract_proof"),
    "engine.check_proof_s": ("s", "check_proof"),
    "engine.proof_steps": ("count", "extract_proof"),
    "engine.load_system_self_s": ("s", "load_system"),
    "formula.parse_s": ("s", "parse"),
    "formula.parse_calls": ("count", "parse"),
    "formula.store_nodes": ("count", "load_system"),
    "gap.gap_report_self_s": ("s", "gap_report"),
    "gap.lbi_accepted_s": ("s", "lbi_accepted"),
    "gap.report_document_s": ("s", "report_document"),
    "gap.witnesses": ("count", "lbi_accepted"),
    "gap.members": ("count", "gap_report"),
    "oracle.entails_s": ("s", "entails"),
    "oracle.entails_calls": ("count", "entails"),
    "oracle.independent_s": ("s", "independent"),
    "oracle.independent_calls": ("count", "independent"),
    "oracle.atoms_max": ("count", "entails"),
    "oracle.minflt": ("count", "entails"),
    "cli.self_s": ("s", "op"),
    "cli.emit_s": ("s", "json.dumps"),
    "cli.output_bytes": ("bytes", "op"),
    "runtime.gc_s": ("s", "op"),
    "runtime.gc_collections": ("count", "op"),
    "runtime.minflt_per_op": ("count", "op"),
    "trace.overhead_ratio": ("ratio", "op"),
    "trace.self_share": ("ratio", "op"),
    "trace.unobserved": ("count", "op"),
}

# The per-layer times; each is a self time, so they partition the op.
SELF_TIMES = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit == "s" and name != "runtime.gc_s"
)

# Sources each workload exercises; the "~0 on" cells of the README table are
# the sources missing here.
EXPECTED_SOURCES = {
    "s9-gap": {"op", "load_system", "parse", "universe", "saturate", "saturate#2",
               "gap_report", "lbi_accepted", "report_document", "json.dumps"},
    "family19-gap": {"op", "load_system", "parse", "universe", "saturate", "saturate#2",
                     "gap_report", "lbi_accepted", "report_document", "json.dumps",
                     "entails", "independent"},
    "chain2000-prove": {"op", "load_system", "parse", "universe", "saturate",
                        "extract_proof", "check_proof", "json.dumps"},
}




def read_spans(path: Path) -> dict[int, list[tuple[int, dict]]]:
    """Spans of a written trace grouped by op, each with its index."""
    ops: dict[int, list[tuple[int, dict]]] = {}
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            span = json.loads(line)
            ops.setdefault(span["op"], []).append((i, span))
    return ops


def op_layers(spans: list[tuple[int, dict]], op_record: dict) -> dict[str, float]:
    """Per-layer values of one traced op. A metric whose source never fired
    in the op is left out."""
    covered: dict[int, float] = {}
    for _, s in spans:
        covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    names = {i: s["name"] for i, s in spans}
    by_name: dict[str, list[dict]] = {}
    for i, s in spans:
        s["self"] = s["end"] - s["start"] - covered.get(i, 0.0)
        by_name.setdefault(s["name"], []).append(s)

    root = by_name["op"][0]
    out: dict[str, float] = {
        "cli.self_s": root["self"],
        "cli.output_bytes": op_record["bytes"],
        "runtime.gc_s": root["attrs"]["gc_s"],
        "runtime.gc_collections": root["attrs"]["gc_collections"],
        "runtime.minflt_per_op": op_record["minflt"],
    }
    if "store_nodes" in root["attrs"]:
        out["formula.store_nodes"] = root["attrs"]["store_nodes"]

    sat = by_name.get("saturate", [])
    if sat:
        theorems = sum(s["attrs"]["theorems"] for s in sat)
        dedup = sum(s["attrs"]["dedup_hits"] for s in sat)
        out["engine.saturate_base_s"] = sat[0]["self"]
        out["engine.theorems_base"] = sat[0]["attrs"]["theorems"]
        out["engine.theorems_per_s"] = theorems / sum(s["end"] - s["start"] for s in sat)
        out["engine.generations"] = sum(s["attrs"]["generations"] for s in sat)
        out["engine.rule_applications"] = sum(s["attrs"]["rule_applications"] for s in sat)
        out["engine.dedup_hits"] = dedup
        out["engine.admit_ratio"] = theorems / (theorems + dedup)
    if len(sat) >= 2:
        out["engine.saturate_closure_s"] = sat[1]["self"]
        out["engine.theorems_closure"] = sat[1]["attrs"]["theorems"]

    for name, time_metric, count_metric in (
        ("universe", "engine.universe_s", "engine.universe_calls"),
        ("parse", "formula.parse_s", "formula.parse_calls"),
        ("entails", "oracle.entails_s", "oracle.entails_calls"),
        ("independent", "oracle.independent_s", "oracle.independent_calls"),
        ("extract_proof", "engine.extract_proof_s", None),
        ("check_proof", "engine.check_proof_s", None),
        ("load_system", "engine.load_system_self_s", None),
        ("gap_report", "gap.gap_report_self_s", None),
        ("lbi_accepted", "gap.lbi_accepted_s", None),
        ("report_document", "gap.report_document_s", None),
        ("json.dumps", "cli.emit_s", None),
    ):
        found = by_name.get(name)
        if found:
            out[time_metric] = sum(s["self"] for s in found)
            if count_metric:
                out[count_metric] = len(found)
    for name, attr, metric in (
        ("extract_proof", "steps", "engine.proof_steps"),
        ("lbi_accepted", "witnesses", "gap.witnesses"),
        ("gap_report", "members", "gap.members"),
    ):
        if name in by_name:
            out[metric] = by_name[name][-1]["attrs"][attr]
    if "entails" in by_name:
        out["oracle.atoms_max"] = max(s["attrs"]["atoms"] for s in by_name["entails"])
        outermost = [
            s for _, s in spans
            if s["name"] in _ORACLE and names.get(s["parent"]) not in _ORACLE
        ]
        out["oracle.minflt"] = sum(s["attrs"]["minflt"] for s in outermost)
    op_s = root["end"] - root["start"]
    out["trace.self_share"] = sum(out.get(m, 0.0) for m in SELF_TIMES) / op_s
    return out
