"""Graph type, construction, and text format."""

import json
import random
from pathlib import Path

import pytest

from lobes import graph as graph_module
from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.graph import (GraphError, bipartition, induced_subgraph,
                         is_connected, make_graph, parse_graph,
                         serialize_graph)

from enumeration import all_graphs_up_to, connected_graphs_up_to

FIXTURE_SPECS = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def test_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edge_count == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_k2():
    g = make_graph(2, [(0, 1)])
    assert g.edge_count == 1
    assert g.degree(0) == g.degree(1) == 1


def test_duplicate_edges_collapse():
    g = make_graph(4, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 1
    assert g.degree(2) == 0 and g.degree(3) == 0


def test_edge_order_does_not_matter():
    a = make_graph(4, [(0, 1), (2, 3), (1, 2)])
    b = make_graph(4, [(1, 2), (1, 0), (3, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])


def test_rejects_out_of_range():
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        make_graph(3, [(-1, 0)])


def test_graph_is_immutable():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.vertex_count = 5


def test_parse_basics():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert g.vertex_count == 3 and g.edges == ((0, 1), (1, 2))
    assert parse_graph("2 1\n0 1\n").edge_count == 1


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a path\n3 2\n\n0 1\n# middle\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("3 1\n0 3\n")
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("3 1\n0 1 2\n")
    with pytest.raises(GraphError, match="2 edges"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(GraphError):
        parse_graph("")
    with pytest.raises(GraphError, match="more edge lines"):
        parse_graph("2 0\n0 1\n")


def test_parse_requires_u_less_than_v():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("3 1\n1 0\n")


def test_round_trip_is_identity_on_canonical_text():
    text = "4 3\n0 1\n0 2\n2 3\n"
    assert serialize_graph(parse_graph(text)) == text


def test_serialize_sorts_edges():
    g = make_graph(4, [(2, 3), (0, 2), (0, 1)])
    assert serialize_graph(g) == "4 3\n0 1\n0 2\n2 3\n"


def test_connectivity_helpers():
    assert is_connected(make_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(make_graph(3, [(0, 1)]))
    assert bipartition(make_graph(3, [(0, 1), (1, 2)])) == ((0, 2), (1,))
    assert bipartition(make_graph(3, [(0, 1), (1, 2), (0, 2)])) is None


def test_induced_subgraph():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, originals = induced_subgraph(g, [1, 2, 4])
    assert originals == (1, 2, 4)
    assert sub.edges == ((0, 1),)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, True)], "vertex id True is not an integer"),
    (3, [(0, 1.0)], "vertex id 1.0 is not an integer"),
    (3, [("0", 1)], "vertex id '0' is not an integer"),
    (3, [(0, None)], "vertex id None is not an integer"),
    (3.0, [], "vertex_count must be an integer"),
    (True, [], "vertex_count must be an integer"),
    # the first offending edge in input order decides the message
    (3, [(0, 1), (5, 0), (1, 1)], r"edge \(5, 0\) has an endpoint outside"),
    (3, [(0, 1), (1, 1), (5, 0)], "self-loop at vertex 1"),
    (3, iter([(2, 1), (0, -1)]), r"edge \(0, -1\) has an endpoint outside"),
])
def test_make_graph_refuses_bad_ids(n, edges, message):
    with pytest.raises(GraphError, match=message):
        make_graph(n, edges)


def test_make_graph_takes_any_iterable():
    g = make_graph(4, ((u, v) for u, v in [(3, 2), (1, 0), (0, 1)]))
    assert g.edges == ((0, 1), (2, 3))


def _corpus():
    """Graphs on at most 6 vertices and the fixtures' depth-1 and depth-2
    truncations."""
    graphs = [g for gs in all_graphs_up_to(6).values() for g in gs]
    for path in FIXTURE_SPECS:
        spec = validate_spec(json.loads(path.read_text()))
        graphs += [build_truncation(with_depth(spec, d)).graph for d in (1, 2)]
    return graphs


def test_lazy_adjacency_and_edge_set_equal_an_eager_build():
    for g in _corpus():
        n = g.vertex_count
        nbrs = [[] for _ in range(n)]
        for u, v in g.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        assert g.adjacency == tuple(tuple(sorted(a)) for a in nbrs)
        assert g.degrees() == tuple(len(a) for a in nbrs)
        edge_set = set(g.edges)
        pairs = [(u, v) for u in range(n) for v in range(n)] if n <= 6 else \
            [(u, w) for u, v in g.edges[:50] for w in range(n)]
        for u, v in pairs:
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edge_set)


def _damage(rng: random.Random, text: str) -> str:
    """One seeded change to a canonical graph text: whitespace, line ends,
    line breaks, comments, signs and leading zeros, line order, ids out of
    order or out of range, header counts, a missing final newline."""
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    kind = rng.randrange(18)
    if kind == 0:
        return text.replace(" ", "\t", 1)
    if kind == 1:
        return "".join(lines[:i] + [lines[i].replace(" ", "  ")]
                       + lines[i + 1:])
    if kind == 2:
        return text.replace("\n", " \n", 1)
    if kind == 3:
        return text.replace("\n", "\r\n")
    if kind == 4:
        return "".join(lines[:i] + ["# comment\n"] + lines[i:])
    if kind == 5:
        return "".join(lines[:i] + ["\n"] + lines[i:])
    if kind == 6:
        return "".join(lines[:i] + ["+" + lines[i]] + lines[i + 1:])
    if kind == 7:
        return "".join(lines[:i] + ["0" + lines[i]] + lines[i + 1:])
    if kind == 8 and len(lines) > 2:
        j = rng.randrange(1, len(lines) - 1)
        lines[j], lines[j + 1] = lines[j + 1], lines[j]
        return "".join(lines)
    if kind == 9:
        return "".join(lines + lines[-1:])
    if kind == 10:
        n = int(lines[0].split()[0])
        u = lines[-1].split()[0]
        return "".join(lines[:-1] + [f"{u} {n + rng.randrange(2)}\n"])
    if kind == 11:
        n, m = map(int, lines[0].split())
        return "".join([f"{n} {m + rng.choice((-1, 1))}\n"] + lines[1:])
    if kind == 12:
        return text[:-1]
    if kind == 13:
        u, v = lines[-1].split()
        return "".join(lines[:-1] + [f"{v} {u}\n"])
    if kind == 14:
        u = lines[-1].split()[1]
        return "".join(lines[:-1] + [f"{u} {u}\n"])
    if kind == 15 and len(lines) > 1:
        return "".join(lines[:1] + [f"-1 {lines[1].split()[1]}\n"]
                       + lines[2:])
    if kind == 16:  # two lines joined, or one split in two
        return text.replace("\n", " ", 1) if rng.randrange(2) else \
            "".join(lines[:i] + [lines[i].replace(" ", "\n")] + lines[i + 1:])
    return "".join(lines[:i] + lines[i + 1:])


def _outcome(parse, text):
    try:
        g = parse(text)
    except GraphError as exc:
        return "error", str(exc)
    return g.vertex_count, g.edges, g.adjacency


def test_parse_fast_path_equals_the_line_parser(monkeypatch):
    rng = random.Random("parse fast path")
    texts = [serialize_graph(g) for gs in connected_graphs_up_to(7).values()
             for g in gs]
    for path in FIXTURE_SPECS:
        spec = validate_spec(json.loads(path.read_text()))
        texts += [serialize_graph(build_truncation(with_depth(spec, d)).graph)
                  for d in (1, 2)]
    line_parser = graph_module._parse_lines
    damaged = [_damage(rng, text) for text in texts for _ in range(3)]
    for text in texts + damaged:
        assert _outcome(parse_graph, text) == _outcome(line_parser, text), text
    # canonical texts never reach the line parser

    def refuse(text):
        raise AssertionError("canonical text went to the line parser")
    monkeypatch.setattr(graph_module, "_parse_lines", refuse)
    for text in texts:
        assert serialize_graph(parse_graph(text)) == text
