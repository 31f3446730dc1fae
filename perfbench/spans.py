"""Span recorder for the traced run, built entirely outside the program.

Each listed function is wrapped in every ``lobes`` module namespace that
binds it (``lobes.decomposition.canonical_certificate`` is a binding of its
own, apart from ``lobes.symmetry.canonical_certificate``), so calls between
the program's modules are recorded too.  A span holds its name, start, end,
parent span and op id; spans stay in memory until ``write``.  Self time is
a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "graph": ("parse_graph", "serialize_graph", "make_graph",
              "induced_subgraph"),
    "decomposition": ("decompose", "lobe_classes"),
    "symmetry": ("canonical_certificate", "find_isomorphism",
                 "automorphism_generators", "group_order", "orbit_partition",
                 "lobe_stabilizer"),
    "transitivity": ("classify", "classify_direct", "tau_table",
                     "is_lobe_transitive_thm", "is_edge_transitive_thm",
                     "is_arc_transitive_thm", "k_arc_orbit_count"),
    "builder": ("validate_spec", "build_truncation", "verify_interior",
                "verify_local_transitivity", "spec_equivalent"),
    "cli": ("run_cli",),
}
ENGINE_ENTRIES = ("symmetry.canonical_certificate", "symmetry.find_isomorphism",
                  "symmetry.automorphism_generators")
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                  for fn in fns)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ENGINE_ENTRIES:
        units[f"{name}.repeat_ratio"] = "ratio"
    units["symmetry.automorphism_generators.gens_out"] = "count"
    units["symmetry.engine.vertices_in"] = "count"
    units["trace.op_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _input_key(value):
    """A hashable stand-in for an argument: graphs by their edges."""
    if hasattr(value, "edges") and hasattr(value, "vertex_count"):
        return ("graph", value.vertex_count, value.edges)
    if isinstance(value, list):
        return tuple(_input_key(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._op = None
        self._seen: dict[str, set] = defaultdict(set)
        self.repeats: Counter = Counter()
        self.gens_out = 0
        self.vertices_in = 0
        self._saved: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "lobes" or name.startswith("lobes.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"lobes.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        self._saved.append((module, fn, original))
                        setattr(module, fn, wrapper)

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._saved):
            setattr(module, fn, original)
        self._saved.clear()

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self._seen.clear()
        self._stack.append(len(self.spans))
        self.spans.append([f"op.{kind}", time.perf_counter(), None, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        engine = name in ENGINE_ENTRIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if engine:
                self._count_inputs(name, signature.bind(*args, **kwargs))
            index = len(self.spans)
            span = [name, 0.0, None, self._stack[-1] if self._stack else -1,
                    self._op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "symmetry.automorphism_generators":
                self.gens_out += len(result.generators)
            return result
        return wrapper

    def _count_inputs(self, name: str, bound: inspect.BoundArguments) -> None:
        bound.apply_defaults()
        key = tuple(_input_key(v) for v in bound.arguments.values())
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        seen.add(key)
        self.vertices_in += sum(v.vertex_count
                                for v in bound.arguments.values()
                                if hasattr(v, "vertex_count"))

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        op_s = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name.startswith("op."):
                op_s += end - start
                continue
            calls[name] += 1
            self_s[name] += end - start - child[i]
        values: dict[str, float] = {}
        for name in FUNCTIONS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        for name in ENGINE_ENTRIES:
            values[f"{name}.repeat_ratio"] = (
                self.repeats[name] / calls[name] if calls[name] else 0.0)
        values["symmetry.automorphism_generators.gens_out"] = self.gens_out
        values["symmetry.engine.vertices_in"] = self.vertices_in
        values["trace.op_s"] = op_s
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
