"""One fresh benchmark worker: set up, then run CLI ops in-process.

Started by run.py, one process at a time. It imports `lemgap.cli`, writes
the seeded inputs into --workdir and prints "ready"; the driver times set-up
up to that line. Unless --setup-only, it then calls `lemgap.cli.main(argv)`
in a closed loop with stdout and stderr captured, writes each distinct
stdout to `<sha256>.out` in --workdir (outside the timed region) and prints
one JSON line with the per-op records. Each op record carries "cal", the
mean time of the calibration loop just before, during and just after the
op, which the driver uses to cancel the host's slow spells. With --trace 1 the ops run under
tracing.Tracer and the spans go to --workdir/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


MIN_OPS = 3  # a first op and two steady ones, even when one op outlasts the budget
_CAL_TABLE = list(range(1024))
CAL_INTERVAL_S = 0.2


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound loop (about 1.9 ms on the
    reference machine). It allocates nothing the collector tracks, so it
    leaves the heap and the GC counters as they were."""
    start = time.perf_counter()
    table, x = _CAL_TABLE, 0
    for i in range(15_000):
        x = (x * 31 + table[i & 1023]) & 0xFFFFF
    return time.perf_counter() - start


class SpeedSampler:
    """Times `calibrate` every CAL_INTERVAL_S while an op runs (from a
    SIGALRM handler), so a long op is scaled by the host's speed during
    it, not only at its ends. The handlers' own time is reported so the
    caller can take it out of the op time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self.samples.append(calibrate())

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


def run_ops(cli_main, argv, workdir: Path, budget: float, max_ops: int, tracer,
            cal: float) -> list[dict]:
    """First op, then more while the next one is expected to end within
    `budget` seconds of the first op's start; always at least MIN_OPS.
    `cal` is the calibration time measured just before the first op."""
    ops: list[dict] = []
    sampler = SpeedSampler()
    begin = time.perf_counter()
    while True:
        out, err = io.StringIO(), io.StringIO()
        faults = _minflt()
        if tracer is not None:
            tracer.begin_op()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sampler.start()
            start = time.perf_counter()
            try:
                rc = cli_main(argv)
            except Exception as exc:  # a crash is a failed op, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            during = sampler.stop()
        if tracer is not None:
            tracer.end_op(start, end)
        faults = _minflt() - faults
        data = out.getvalue().encode("utf-8")
        del out
        sha = hashlib.sha256(data).hexdigest()
        path = workdir / f"{sha}.out"
        if not path.exists():
            path.write_bytes(data)
        after = calibrate()
        readings = [cal, *during, after]
        ops.append({"s": end - start - sum(during), "rc": rc, "stderr": err.getvalue(),
                    "sha": sha, "bytes": len(data), "minflt": faults,
                    "cal": sum(readings) / len(readings)})
        del data
        cal = after
        elapsed = time.perf_counter() - begin
        if len(ops) >= MIN_OPS and (len(ops) >= max_ops or elapsed + (end - start) > budget):
            return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=1_000_000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from lemgap.cli import main as cli_main

    import workloads

    argv = workloads.write_inputs(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    cal = sum(calibrate() for _ in range(3)) / 3
    if args.setup_only:
        print(json.dumps({"cal": cal}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        ops = run_ops(cli_main, argv, args.workdir, args.budget, args.max_ops, tracer, cal)
    finally:
        if tracer is not None:
            tracer.uninstall()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(args.workdir / "spans.jsonl")
    print(json.dumps({"ops": ops, "maxrss_kb": maxrss_kb, "cal": cal}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
