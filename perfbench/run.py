"""lemgap benchmark driver.

    python3 perfbench/run.py --workload s9-gap --seed 0 --seconds 30 --trace 0

Runs the real CLI path (`lemgap.cli.main(argv)` in-process, stdout
captured), closed loop, one client, in fresh worker processes started one
at a time. Every op's stdout is checked against facts from an independent
source (expected.py). The last stdout line is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A human-readable report goes to stderr. `--workload all` runs every
workload and prints one JSON line each. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from expected import Expected

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

MIN_ROUNDS = 2          # at least two fresh workers, so two first ops
WORKER_BUDGET_S = 3.0   # each worker's ops stop once the next would end later
SETUP_ONLY = 2          # set-up-only spawns per round, besides the op worker
TRACED_MAX_OPS = 12     # spans of more ops add nothing but file size
DEADLINE_S = 170.0      # a run must end within 180 s
CAL_REF_S = 0.002       # worker.calibrate() on the reference machine (README)

END_TO_END = {
    "op_s_p50": "s",
    "first_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def machine() -> str:
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()}, {model}, Python {platform.python_version()}"


def _worker_env() -> dict[str, str]:
    # Default interpreter and allocator: nothing inherited may tune them.
    return {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "MALLOC_"))}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = WORKDIR / f"run-{os.getpid()}-{workload}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.expected = Expected(workload, seed, ROOT, WORKDIR)
        self.setup: list[tuple[float, float]] = []  # (seconds, calibration)

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, *extra: str) -> dict:
        """Start one worker, time its set-up, wait for it; return its result."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(self.workdir), *extra]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            # Read the "ready" line straight from the pipe: a buffered
            # readline could swallow later output that communicate() then
            # never sees.
            head = b""
            while b"\n" not in head:
                if not select.select([proc.stdout], [], [], self.remaining())[0]:
                    raise subprocess.TimeoutExpired(cmd, self.remaining())
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                head += chunk
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {self.workload} passed the run deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        ready, _, rest = (head + out).decode().partition("\n")
        if ready != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}): {ready} {err.decode().strip()}")
        try:
            result = json.loads(rest.splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"worker printed no result: {err.decode().strip()}") from None
        self.setup.append((setup_s, result["cal"]))
        return result

    def ops(self, budget: float, trace: int = 0, max_ops: int = 1_000_000) -> dict:
        return self.spawn("--budget", str(budget), "--trace", str(trace), "--max-ops", str(max_ops))

    def check(self, ops: list[dict]) -> list[str]:
        """One line per failed op: wrong exit code, stderr output or stdout."""
        verdicts: dict[str, list[str]] = {}
        failures = []
        for k, op in enumerate(ops):
            if op["sha"] not in verdicts:
                data = (self.workdir / f"{op['sha']}.out").read_bytes()
                verdicts[op["sha"]] = self.expected.problems(data)
            problems = list(verdicts[op["sha"]])
            if op["rc"] != 0:
                problems.insert(0, f"exit code {op['rc']!r}")
            if op["stderr"]:
                problems.append(f"stderr: {op['stderr'].strip()[:200]}")
            if problems:
                failures.append(f"op {k}: " + "; ".join(problems))
        return failures

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ref(seconds: float, cal: float) -> float:
    """A raw time in reference seconds: scaled by how much slower the
    calibration loop ran next to it than on the reference machine."""
    return seconds * CAL_REF_S / cal


def _steady_p50(results: list[dict]) -> float:
    """Median reference time of the workers' ops after their first."""
    return _median([_ref(op["s"], op["cal"]) for r in results for op in r["ops"][1:]])


def end_to_end(run: Run) -> tuple[dict, list[dict], list[str], str]:
    # Rounds of set-up-only spawns plus one op worker, repeated until the
    # next round would end past --seconds, spread the samples over the run:
    # the host's slow spells last seconds and would otherwise hit whole runs.
    results = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        for _ in range(SETUP_ONLY):
            run.spawn("--setup-only")
        results.append(run.ops(WORKER_BUDGET_S))
        now = time.monotonic()
        if len(results) >= MIN_ROUNDS and now - begin + (now - start) > run.seconds:
            break
    ops = [op for r in results for op in r["ops"]]
    steady = [op for r in results for op in r["ops"][1:]]
    values = {
        "op_s_p50": _steady_p50(results),
        "first_op_s": _median([_ref(r["ops"][0]["s"], r["ops"][0]["cal"]) for r in results]),
        "setup_s": _median([_ref(s, cal) for s, cal in run.setup]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in results]),
    }
    raw = (f"  raw medians: op {_median([op['s'] for op in steady]):.6g} s, "
           f"set-up {_median([s for s, _ in run.setup]):.6g} s; calibration "
           f"{_median([op['cal'] for op in ops]) * 1e3:.4g} ms (reference {CAL_REF_S * 1e3:g} ms); "
           f"{len(results)} workers, {len(steady)} steady ops, {len(run.setup)} set-ups")
    return values, ops, run.check(ops), raw


def per_layer(run: Run) -> tuple[dict, list[dict], list[str], set[str], str]:
    plain = run.ops(run.seconds / 2)
    traced = run.ops(run.seconds / 2, trace=1, max_ops=TRACED_MAX_OPS)
    spans = tracing.read_spans(run.workdir / "spans.jsonl")
    shutil.copy(run.workdir / "spans.jsonl", WORKDIR / f"spans-{run.workload}-{run.seed}.jsonl")
    failures = []
    per_op = []
    for k, op in enumerate(traced["ops"]):
        layers = tracing.op_layers(spans[k], op)
        if layers["trace.self_share"] > 1 + 1e-9:
            failures.append(f"traced op {k}: self times exceed the op time")
        if k > 0:
            per_op.append(layers)
    values = {}
    observed = set()
    for name in tracing.PER_LAYER:
        seen = [layers[name] for layers in per_op if name in layers]
        if seen:
            observed.add(name)
        values[name] = _median(seen)
    values["trace.overhead_ratio"] = _steady_p50([traced]) / _steady_p50([plain])
    observed.add("trace.overhead_ratio")
    expected = tracing.EXPECTED_SOURCES[run.workload]
    missing = {n for n, (_, src) in tracing.PER_LAYER.items()
               if src in expected and n not in observed and n != "trace.unobserved"}
    values["trace.unobserved"] = len(missing)
    observed.add("trace.unobserved")
    ops = plain["ops"] + traced["ops"]
    raw = f"  spans written to {WORKDIR.name}/spans-{run.workload}-{run.seed}.jsonl"
    return values, ops, run.check(ops) + failures, observed, raw


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workload, seed, seconds)
    try:
        if trace:
            values, ops, failures, observed, note = per_layer(run)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            values, ops, failures, note = end_to_end(run)
            observed = set(values)
            units = END_TO_END
    finally:
        run.cleanup()

    report = [f"lemgap benchmark: workload {workload}, seed {seed}, "
              f"{seconds:g} s, trace {trace}; {machine()}",
              f"  ops attempted {len(ops)}, failed {len(failures)}, "
              f"error_rate {len(failures) / len(ops):.4g}", note]
    report += [f"  FAILED {line}" for line in failures[:20]]
    for name, unit in units.items():
        shown = f"{values[name]:.6g} {unit}" if name in observed else "not observed"
        report.append(f"  {name:28} {shown}")
    print("\n".join(report), file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "lemgap" / "cli.py", ROOT / "tests" / "support.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a lemgap checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, args.trace)
            lines.append(({"workload": name} if args.workload == "all" else {}) | result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
