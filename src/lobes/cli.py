"""Command-line interface.

Subcommands: decompose, aut, classify, karc, build, limit, equiv, iso, named.
Human-readable text by default; ``--json`` switches to machine output.

Exit codes: 0 success, 1 negative answer (equiv/iso), 2 usage error,
3 input error or a closed stdout, 4 resource cap exceeded or search
recursion too deep.

Every JSON document, on stdout or in the ``build -o`` sidecar, is written by
``_json_text``, whose output is ``json.dumps(doc, indent=2,
sort_keys=True)`` byte for byte.  It writes dicts with str keys, lists,
tuples, ints and strs itself, a list of ints in one join, and hands every
other value to ``json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .builder import (ResourceCapError, build_truncation, classify_limit,
                      spec_equivalent, validate_spec)
from .catalog import CATALOG_NAMES, named_graph
from .decomposition import decompose, lobe_classes
from .graph import Graph, parse_graph, serialize_graph
from .symmetry import (automorphism_generators, find_isomorphism, group_order,
                       orbit_partition)
from .transitivity import classify, k_arc_orbit_count

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4


class _InputError(Exception):
    pass


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="ascii") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_spec(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return validate_spec(doc)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _output_file(path: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _emit_json(doc) -> None:
    print(_json_text(doc))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    return "".join(out)


_INT = frozenset((int,))
_STR = frozenset((str,))


def _write_json(x, nl: str, out: list[str]) -> None:
    """Append the text of ``x`` to ``out``; ``nl`` starts a line at x's
    indent.  ``json`` indents no line inside a string, so a value it writes
    is re-indented by replacing its newlines."""
    t = type(x)
    if t is str:
        out.append(encode_basestring_ascii(x))
    elif t is int:
        out.append(repr(x))
    elif (t is list or t is tuple) and x:
        inner = nl + "  "
        if _INT.issuperset(map(type, x)):
            out.append(f"[{inner}{(',' + inner).join(map(repr, x))}{nl}]")
            return
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and x and _STR.issuperset(map(type, x)):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            value = x[key]
            out += (sep, encode_basestring_ascii(key), ": ")
            if type(value) is int:
                out.append(repr(value))
            else:
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", nl))


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    try:
        d = decompose(g)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    classes = lobe_classes(g, d)
    if args.json:
        _emit_json(d.to_json_dict(classes))
        return EXIT_OK
    print(f"lobes: {d.lobe_count}")
    for i, lobe in enumerate(d.lobes):
        k = classes.class_of[i]
        print(f"  lobe {i} (class {k}): vertices {list(lobe.vertices)}")
    print(f"cut vertices: {list(d.cut_vertices)}")
    print(f"block-cut tree edges: {[list(e) for e in d.tree_edges]}")
    print(f"isomorphism classes: {classes.class_count}")
    return EXIT_OK


def _cmd_aut(args) -> int:
    g = _load_graph(args.graph)
    gens = automorphism_generators(g)
    order = group_order(gens)
    vparts = orbit_partition(gens, "vertices")
    eparts = orbit_partition(gens, "edges", graph=g)
    aparts = orbit_partition(gens, "arcs", graph=g)
    if args.json:
        _emit_json({
            "generators": [list(p) for p in gens.generators],
            "group_order": order,
            "orbits": {
                "vertices": [list(c) for c in vparts.cells],
                "edges": [[list(e) for e in c] for c in eparts.cells],
                "arcs": [[list(a) for a in c] for c in aparts.cells],
            },
        })
        return EXIT_OK
    print(f"group order: {order}")
    print(f"generators ({len(gens.generators)}):")
    for p in gens.generators:
        print(f"  {list(p)}")
    print(f"vertex orbits ({vparts.cell_count}): "
          f"{[list(c) for c in vparts.cells]}")
    print(f"edge orbits: {eparts.cell_count}")
    print(f"arc orbits: {aparts.cell_count}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    try:
        report = classify(g)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.json:
        _emit_json(report.to_json_dict())
        return EXIT_OK
    print(f"connectivity: {report.connectivity}")
    o = report.oracle
    print(f"oracle orbits: vertices={o.vertex_orbits} edges={o.edge_orbits} "
          f"arcs={o.arc_orbits} lobes={o.lobe_orbits}")
    if report.theorem is None:
        print("theorem checkers: n/a (need connectivity 1)")
    else:
        t = report.theorem
        print(f"theorem verdicts: vertex={t['vertex']} lobe={t['lobe']} "
              f"edge={t['edge']} arc={t['arc']}")
        for name, (kind, data) in report.witnesses.items():
            print(f"{name} witness: {kind}"
                  + ("" if data is None else f" {data}"))
        if report.edge_case:
            print(f"edge case: {report.edge_case} "
                  f"m={list(report.m_constants or ())}")
        print(f"theorem/oracle consistent: {report.consistent}")
    if report.tree_valences:
        print(f"tree valence pair: {report.tree_valences}")
    return EXIT_OK


def _cmd_karc(args) -> int:
    g = _load_graph(args.graph)
    try:
        count = k_arc_orbit_count(g, args.k)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.json:
        _emit_json({"k": args.k, "orbit_count": count})
    else:
        print(f"{args.k}-arc orbits: {count}")
    return EXIT_OK


def _cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    result = build_truncation(spec, max_vertices=args.max_vertices)
    text = serialize_graph(result.graph)
    sidecar = result.to_json_dict()
    if args.output:
        with _output_file(args.output) as fh:
            fh.write(text)
        with _output_file(args.output + ".json") as fh:
            fh.write(_json_text(sidecar) + "\n")
        if not args.json:
            print(f"wrote {result.graph.vertex_count} vertices, "
                  f"{result.graph.edge_count} edges, "
                  f"{len(result.lobes)} lobes to {args.output}")
        else:
            _emit_json({"written": args.output,
                        "vertex_count": result.graph.vertex_count})
        return EXIT_OK
    if args.json:
        _emit_json({"graph": text, "sidecar": sidecar})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_limit(args) -> int:
    spec = _load_spec(args.spec)
    report = classify_limit(spec)
    if args.json:
        _emit_json(report.to_json_dict())
        return EXIT_OK
    print(f"lobe-transitive: {report.lobe_transitive}")
    print(f"vertex-transitive: {report.vertex_transitive}")
    case = f" (case {report.edge_case})" if report.edge_case else ""
    print(f"edge-transitive: {report.edge_transitive}{case}")
    print(f"arc-transitive: {report.arc_transitive}")
    print(f"lobes per vertex, by cell: {list(report.cell_totals)}")
    if report.m_constants:
        print(f"m constants: {list(report.m_constants)}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    if args.depth < 0:
        print(f"error: depth must be nonnegative, got {args.depth}", file=sys.stderr)
        return EXIT_USAGE
    s1 = _load_spec(args.spec1)
    s2 = _load_spec(args.spec2)
    same = spec_equivalent(s1, s2, args.depth, max_vertices=args.max_vertices)
    if args.json:
        _emit_json({"equivalent": same, "depth": args.depth})
    else:
        print("equivalent" if same else "not equivalent")
    return EXIT_OK if same else EXIT_NEGATIVE


def _cmd_iso(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    mapping = find_isomorphism(g1, g2)
    if args.json:
        _emit_json({"isomorphic": mapping is not None,
                    "mapping": None if mapping is None else list(mapping)})
    else:
        print("non-isomorphic" if mapping is None else list(mapping))
    return EXIT_OK if mapping is not None else EXIT_NEGATIVE


def _cmd_named(args) -> int:
    try:
        g = named_graph(args.name, *args.params)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    text = serialize_graph(g)
    if args.output:
        with _output_file(args.output) as fh:
            fh.write(text)
        if args.json:
            _emit_json({"vertex_count": g.vertex_count,
                        "written": args.output})
        else:
            print(f"wrote {args.name} to {args.output}")
    elif args.json:
        _emit_json({"name": args.name, "params": args.params, "graph": text})
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache  # built once: each parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobes",
        description="Lobe decompositions, symmetry, transitivity, and "
                    "lobe-transitive graph construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
        return p

    p = add("decompose", _cmd_decompose, "lobe decomposition report")
    p.add_argument("graph")

    p = add("aut", _cmd_aut, "automorphism generators, order, orbits")
    p.add_argument("graph")

    p = add("classify", _cmd_classify, "theorem + oracle classification")
    p.add_argument("graph")

    p = add("karc", _cmd_karc, "number of k-arc orbits")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)

    p = add("build", _cmd_build, "grow a truncation from a build spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", help="write graph here (sidecar: +.json)")
    p.add_argument("--max-vertices", type=int, default=100000)

    p = add("limit", _cmd_limit, "classify the infinite limit of a spec")
    p.add_argument("spec")

    p = add("equiv", _cmd_equiv, "compare two specs at a truncation depth")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("-d", "--depth", type=int, required=True)
    p.add_argument("--max-vertices", type=int, default=100000)

    p = add("iso", _cmd_iso, "isomorphism between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")

    p = add("named", _cmd_named, "emit a catalog graph "
            f"({', '.join(CATALOG_NAMES)})")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        # the search engine recurses once per level of its search tree
        print("error: search recursion too deep for this input",
              file=sys.stderr)
        return EXIT_CAP


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (``| head``); the flush at interpreter exit
        # would raise again, so it goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)
