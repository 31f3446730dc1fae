"""Benchmark for lobes: one caller in a closed loop, whole rounds of ops.

    python3 perfbench/run.py --workload canon-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` directory and driven through its public functions and
``lobes.cli.run_cli``; each op is issued only after the previous one
returns, in one process with no threads or subprocesses.  Ops run in whole
rounds until ``--seconds`` have passed, so a run takes up to one round
longer than that.  ``--seconds 0`` runs a single round.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the run repeats the same rounds
with the span recorder installed, reports the per-layer metrics and
writes the spans to ``.perfbench-out/``.  Lines before it give the same
figures for a reader.  The exit code is 0 whenever a result was printed,
even if some op failed; the result then says ``"correct": false``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "cpu_ms_per_op": "ms", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_rate": "ratio"}


def import_lobes():
    """Import lobes afresh from the checkout's own source tree."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules
                 if m == "lobes" or m.startswith("lobes.")]:
        del sys.modules[name]
    lobes = importlib.import_module("lobes")
    importlib.import_module("lobes.cli")
    if Path(lobes.__file__).resolve().parent != ROOT / "src" / "lobes":
        raise ImportError(f"lobes was imported from {lobes.__file__}, "
                          f"not from {ROOT / 'src'}")
    return lobes


def set_up(name: str, seed: int, work: Path):
    """Import the program, validate specs and build the inputs.

    Repeated SETUP_REPEATS times; the median is the reported set-up time.
    The garbage of the previous repetition is collected before the clock
    starts, so that no repetition pays for another.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        wl = workloads.WORKLOADS[name](import_lobes(), seed, work)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


class Samples:
    """Wall and CPU time of every op, kept round by round with the op's
    (kind, item) key.

    Each op starts on a collected heap, as a fresh call of the program
    would: the garbage the ops before it left is collected before its clock
    starts.  Otherwise a 5 ms op can take 15 ms, depending on what ran
    before it in the round.
    """

    def __init__(self):
        self.rounds: list[list[tuple[tuple[str, str], float, float]]] = []
        self.failed_in_round: list[int] = []
        self.errors: list[str] = []

    @property
    def count(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(self.failed_in_round)

    def run_round(self, ops, tracer=None) -> None:
        times, failed = [], 0
        for op in ops:
            gc.collect()
            if tracer:
                tracer.begin_op(self.count + len(times), op.kind)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a crash is a failed op, not a stop
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer:
                tracer.end_op()
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"output check raised {type(exc).__name__}: {exc}"
            times.append(((op.kind, op.item), t1 - t0, c1 - c0))
            if error is not None:
                failed += 1
                self.errors.append(f"{op.kind} {op.item}: {error}")
        self.rounds.append(times)
        self.failed_in_round.append(failed)

    def wall_s(self) -> float:
        return sum(w for r in self.rounds for _, w, _ in r)


def run_rounds(wl, samples: Samples, seconds: float | None = None,
               rounds: int | None = None, tracer=None) -> int:
    """Run whole rounds until ``seconds`` pass, or exactly ``rounds``."""
    start = time.perf_counter()
    r = 0
    while True:
        samples.run_round(wl.round(r), tracer)
        r += 1
        if rounds is not None and r >= rounds:
            return r
        if seconds is not None and time.perf_counter() - start >= seconds:
            return r


def end_to_end(samples: Samples, setup_s: float) -> dict[str, float]:
    """Medians over rounds, so that a preempted stretch of the run on a
    shared machine does not decide a figure.

    Throughput is the median of the per-round figures.  Each op's time is
    the median of its repetitions, one per round, and the percentiles
    interpolate between those per-op medians: op costs come in steps (a
    few large items, many small ones), and a percentile read from single
    samples jumps between steps.  CPU time is not charged for stolen time,
    so CPU per op is the plain mean.
    """
    rounds = samples.rounds
    per_op = defaultdict(list)
    for r in rounds:
        for key, wall, _ in r:
            per_op[key].append(wall)
    medians = [statistics.median(walls) for walls in per_op.values()]
    n = samples.count
    return {
        "ops_per_s": statistics.median(
            (len(r) - f) / sum(w for _, w, _ in r)
            for r, f in zip(rounds, samples.failed_in_round)),
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_p90_ms": 1000 * statistics.quantiles(
            medians, n=10, method="inclusive")[8],
        "cpu_ms_per_op": 1000 * sum(c for r in rounds for _, _, c in r) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (n - samples.failed) / n,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            prepare=None) -> dict:
    """One benchmark run; ``prepare(workload)`` may alter it after set-up."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        wl, setup_s = set_up(name, seed, Path(work))
        if prepare:
            prepare(wl)
        # The inputs live for the whole run.  Frozen, they are left out of
        # every collection, as they would be absent from the heap of a
        # single call of the program, and the collection before each op
        # stays short.
        gc.collect()
        gc.freeze()
        samples = Samples()
        rounds = run_rounds(wl, samples, seconds=seconds)
        n, failed, errors = samples.count, samples.failed, samples.errors
        values = end_to_end(samples, setup_s)
        units = END_TO_END
        reps = Counter(key for r in samples.rounds for key, _, _ in r)
        notes = [f"{n} ops in {rounds} rounds of {n // rounds}, "
                 f"{failed} failed, error_rate {failed / n:.6g}; op_p50_ms "
                 f"and op_p90_ms interpolated over the {len(reps)} per-op "
                 f"medians of {min(reps.values())}-{max(reps.values())} "
                 f"samples each"]
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = Samples()
                run_rounds(wl, traced, rounds=rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            values = tracer.metrics(traced.wall_s() / samples.wall_s())
            units = spans.metric_units()
            trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(trace_path)
            notes.append(f"traced rerun of the same {rounds} rounds: "
                         f"{len(tracer.spans)} spans written to {trace_path}")
            n += traced.count
            failed += traced.failed
            errors += traced.errors
        gc.unfreeze()
    return {"notes": notes, "errors": errors,
            "result": {"correct": failed == 0, "attempted": n,
                       "failed": failed,
                       "metrics": {k: {"value": values[k], "unit": units[k]}
                                   for k in units}}}


def main(argv=None, prepare=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      prepare)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    for error in out["errors"][:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(out["notes"]))
    for key, metric in out["result"]["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
