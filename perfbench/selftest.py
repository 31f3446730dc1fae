"""Self-test of the benchmark: a minimal-size run of every workload.

    python3 perfbench/selftest.py

For each workload it runs one round of two input items, untraced and
traced, and asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit and that no op failed.  Then it
corrupts one expected answer per workload and asserts that the error rate
rises above 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# One expected answer per workload, made wrong on purpose.
CORRUPT = {
    "canon-large": lambda wl: wl.expect.update(moved=(0,)),
    "analyze-small": lambda wl: wl.expect["order"].update(petersen=121),
    "grow-deep": lambda wl: wl.expect.update(ok=False),
}


def shrink(wl) -> None:
    """Keep two input items, one of them reached by the corruption."""
    if isinstance(wl, workloads.CanonLarge):
        wl.graphs = sorted(wl.graphs, key=lambda g: g[0])[:2]
        wl.pairs = wl.pairs[:1]
    elif isinstance(wl, workloads.AnalyzeSmall):
        wl.items = [i for i in wl.items if i[0] in ("petersen", "tree0")]
    else:
        wl.fixtures = [f for f in wl.fixtures
                       if f[0] in ("clothesline_i", "k4_uniform")]


def printed_result(name: str, trace: int, prepare) -> tuple[dict, str]:
    """Run the benchmark's main(); return its last line, parsed, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)], prepare=prepare)
    assert code == 0, f"{name}: exit code {code}\n{err.getvalue()}"
    return json.loads(out.getvalue().strip().splitlines()[-1]), err.getvalue()


def expect_metrics(name: str, result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in listed}
    assert printed == wanted, f"{name}: printed {printed}, wanted {wanted}"


def main() -> int:
    for name in sorted(CORRUPT):
        for trace, listed in ((0, BENCHMARK["end_to_end"]),
                              (1, BENCHMARK["per_layer"])):
            result, errors = printed_result(name, trace, shrink)
            expect_metrics(name, result, listed)
            assert result["correct"] and result["failed"] == 0, errors
            assert result["attempted"] >= 1
        broken, _ = printed_result(
            name, 0, lambda wl, n=name: (shrink(wl), CORRUPT[n](wl)))
        expect_metrics(name, broken, BENCHMARK["end_to_end"])
        assert broken["failed"] > 0 and not broken["correct"], (name, broken)
        assert broken["metrics"]["ok_rate"]["value"] < 1
        print(f"{name}: ok ({broken['failed']} of {broken['attempted']} ops "
              f"failed with a corrupted expected answer)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
