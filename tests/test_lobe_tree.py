"""Block-cut tree certificates against the search engine.

``canonical_certificate`` certifies a connectivity-1 graph from its block-cut
tree, running the engine on its lobes only; ``_engine_certificate`` runs the
engine on the whole graph.  Two inputs must get equal tree certificates
exactly when they get equal engine certificates.  ``find_isomorphism``
jumps back in both of its searches and stops the second one at the first
graph's canonical form, and must still give the mapping of two full engine
searches.
"""

import json
import random
from pathlib import Path

import pytest

from lobes import symmetry
from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.catalog import named_graph
from lobes.decomposition import connectivity_class, decompose, lobe_classes
from lobes.graph import is_connected, make_graph, relabel_graph
from lobes.symmetry import (_engine_certificate, _run_engine,
                            canonical_certificate, find_isomorphism,
                            inverse_perm)

from brute import brute_is_cut_vertex
from enumeration import all_graphs_up_to, random_connectivity_one_graph

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
BY_NAME = {p.stem: p for p in FIXTURES}
TAG = b"lobe tree;"


@pytest.fixture(scope="module")
def small_graphs():
    """Every graph on at most 7 vertices, up to isomorphism."""
    return [g for graphs in all_graphs_up_to(7).values() for g in graphs]


def _truncation(path: Path, depth: int):
    spec = validate_spec(json.loads(path.read_text()))
    return build_truncation(with_depth(spec, depth)).graph


def _relabel(g, rng: random.Random, colors=None):
    """A seeded relabeling of g, with the colors carried along."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    if colors is None:
        return relabel_graph(g, perm), None
    moved = [None] * g.vertex_count
    for v, c in enumerate(colors):
        moved[perm[v]] = c
    return relabel_graph(g, perm), moved


def _assert_same_classes(pairs) -> None:
    """(tree, engine) certificate pairs: both certificates must split the
    inputs into the same classes."""
    pairs = set(pairs)
    assert len({t for t, _ in pairs}) == len({e for _, e in pairs}) \
        == len(pairs)


def test_connectivity_class_matches_vertex_removal(small_graphs):
    for g in small_graphs:
        n = g.vertex_count
        if n <= 1 or not is_connected(g):
            want = "disconnected"
        elif n == 2:
            want = "single_K2"
        elif any(brute_is_cut_vertex(g, v) for v in range(n)):
            want = "connectivity_one"
        else:
            want = "biconnected"
        assert connectivity_class(g) == want, g.edges


def test_tree_certificates_match_engine_on_small_graphs(small_graphs):
    rng = random.Random(456)
    ones = [g for g in small_graphs
            if connectivity_class(g) == "connectivity_one"]
    assert len(ones) == 456
    pairs = []
    for g in ones:
        h, _ = _relabel(g, rng)
        cert = canonical_certificate(g)
        assert cert.startswith(TAG)
        assert canonical_certificate(h) == cert
        pairs += [(cert, _engine_certificate(g)), (cert, _engine_certificate(h))]
    _assert_same_classes(pairs)
    assert len(set(pairs)) == 456


def test_tree_certificates_match_engine_on_random_block_trees():
    rng = random.Random(2024)
    pairs = []
    for _ in range(200):
        g = random_connectivity_one_graph(rng, max_vertices=rng.randint(4, 30))
        h, _ = _relabel(g, rng)
        for x in (g, h):
            pairs.append((canonical_certificate(x), _engine_certificate(x)))
        assert pairs[-1][0] == pairs[-2][0]
    _assert_same_classes(pairs)


def test_tree_certificates_match_engine_on_fixture_truncations():
    rng = random.Random(12)
    pairs = []
    for depth in (1, 2):
        for path in FIXTURES:
            g = _truncation(path, depth)
            cert = canonical_certificate(g)
            assert cert.startswith(TAG), (path.name, depth)
            assert canonical_certificate(_relabel(g, rng)[0]) == cert
            pairs.append((cert, _engine_certificate(g)))
    _assert_same_classes(pairs)
    # the four clothesline specs grow equal truncations
    assert len(set(pairs)) < len(pairs)


def test_colored_tree_certificates_match_engine():
    rng = random.Random(99)
    pairs = []
    for _ in range(60):
        g = random_connectivity_one_graph(rng, max_vertices=12)
        for _ in range(4):
            colors = [rng.randrange(2) for _ in range(g.vertex_count)]
            h, moved = _relabel(g, rng, colors)
            cert = canonical_certificate(g, colors)
            assert cert.startswith(TAG)
            assert canonical_certificate(h, moved) == cert
            pairs += [(cert, _engine_certificate(g, colors)),
                      (cert, _engine_certificate(h, moved))]
            mapping = find_isomorphism(g, h, colors, moved)
            assert mapping is not None
            assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)
            assert all(moved[mapping[v]] == colors[v]
                       for v in range(g.vertex_count))
    _assert_same_classes(pairs)


def test_certificates_of_large_truncations():
    """Inputs the engine could not certify in a benchmark run."""
    rng = random.Random(3)
    certs = []
    for name, depth in (("chord5cyc", 3), ("petersen_balanced", 2),
                        ("petersen_balanced", 3), ("kst_one_each", 3)):
        g = _truncation(BY_NAME[name], depth)
        cert = canonical_certificate(g)
        assert cert.startswith(TAG)
        assert canonical_certificate(_relabel(g, rng)[0]) == cert, name
        certs.append(cert)
    assert len(set(certs)) == len(certs)


@pytest.mark.parametrize("name,size", [("star", 1500), ("path", 5000)])
def test_certificates_of_deep_block_trees(name, size):
    # these raised RecursionError while the engine certified whole graphs
    g = named_graph(name, size)
    cert = canonical_certificate(g)
    assert cert.startswith(TAG)
    assert canonical_certificate(_relabel(g, random.Random(size))[0]) == cert


def test_find_isomorphism_rejects_by_tree_certificate(monkeypatch):
    runs = []
    real_run = symmetry._Engine.run

    def counted(engine):
        runs.append(engine.n)
        return real_run(engine)

    monkeypatch.setattr(symmetry._Engine, "run", counted)
    chain = make_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                           (4, 5), (4, 6), (5, 6)])
    windmill = make_graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                              (3, 4), (0, 5), (0, 6), (5, 6)])
    paw = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    for g1, g2 in ((chain, windmill), (named_graph("path", 40),
                                       named_graph("star", 39)),
                   (named_graph("cycle", 4), paw), (paw, named_graph("cycle", 4))):
        runs.clear()
        assert find_isomorphism(g1, g2) is None
        assert all(n < g1.vertex_count for n in runs)
    runs.clear()
    assert find_isomorphism(chain, chain) is not None
    assert runs.count(7) == 2


# ---------------------------------------------------------------------------
# find_isomorphism's stopped second search against two full searches
# ---------------------------------------------------------------------------

def _full_search_mapping(g1, g2, colors1=None, colors2=None):
    """lab2^-1 . lab1 from two full engine runs, or None."""
    key1, lab1, _, sig1, _ = _run_engine(g1, colors1)
    key2, lab2, _, sig2, _ = _run_engine(g2, colors2)
    if key1 != key2 or sig1 != sig2:
        return None
    lab2_inv = inverse_perm(lab2)
    return tuple(lab2_inv[lab1[v]] for v in range(g1.vertex_count))


def _assert_same_mapping(g1, g2, colors1=None, colors2=None):
    mapping = find_isomorphism(g1, g2, colors1, colors2)
    assert mapping == _full_search_mapping(g1, g2, colors1, colors2)
    return mapping


@pytest.mark.parametrize("make", [
    pytest.param(lambda name=name: _truncation(BY_NAME[name], 2),
                 id=f"{name}_d2")
    for name in ("k4_uniform", "kst_one_each", "kst_two_images",
                 "chord5cyc")] + [
    pytest.param(lambda args=args: named_graph(*args),
                 id="_".join(map(str, args)))
    for args in (("petersen",), ("holt",), ("complete_bipartite", 3, 3),
                 ("cycle", 30))])
def test_stopped_search_gives_the_full_search_mapping(make):
    g = make()
    rng = random.Random(g.vertex_count)
    for _ in range(3):
        h, _ = _relabel(g, rng)
        mapping = _assert_same_mapping(g, h)
        assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)


def test_stopped_search_on_anchored_lobe_pairs():
    # the pairs extend_lobe_isomorphism glues: two lobes of one class, each
    # coloured by its anchor vertex, isomorphic or not as the anchors' orbit
    # labels agree or not
    rng = random.Random(7)
    found = missing = 0
    for name in ("chord5cyc", "petersen_balanced", "kst_one_each"):
        g = _truncation(BY_NAME[name], 1)
        d = decompose(g)
        classes = lobe_classes(g, d)
        for ls in range(d.lobe_count):
            lt = rng.choice([i for i in range(d.lobe_count)
                             if classes.class_of[i] == classes.class_of[ls]])
            sub_s, orig_s = d.lobes[ls].subgraph()
            sub_t, orig_t = d.lobes[lt].subgraph()
            v, w = rng.choice(orig_s), rng.choice(orig_t)
            colors_s = [1 if x == v else 0 for x in orig_s]
            colors_t = [1 if x == w else 0 for x in orig_t]
            mapping = _assert_same_mapping(sub_s, sub_t, colors_s, colors_t)
            same_label = (classes.vertex_label[ls][v]
                          == classes.vertex_label[lt][w])
            assert (mapping is not None) == same_label, (name, ls, lt, v, w)
            if mapping is None:
                missing += 1
            else:
                found += 1
                assert orig_t[mapping[orig_s.index(v)]] == w
    assert found and missing


def test_stopped_search_on_a_nonisomorphic_biconnected_pair():
    # K_{3,3} and the triangular prism: 6 vertices, 9 edges, 3-regular, so
    # refinement splits nothing and g2's search runs to its end
    prism = make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                           (0, 3), (1, 4), (2, 5)])
    k33 = named_graph("complete_bipartite", 3, 3)
    assert _assert_same_mapping(k33, prism) is None
    assert _assert_same_mapping(prism, k33) is None


def test_stopped_search_visits_a_tenth_of_the_nodes(monkeypatch):
    g = _truncation(BY_NAME["kst_one_each"], 2)
    h, _ = _relabel(g, random.Random(1))
    nodes = {"full": 0, "stopped": 0}
    real_node = symmetry._Engine._node

    def counted(engine, *args):
        nodes["full" if engine.stop_key is None else "stopped"] += 1
        return real_node(engine, *args)

    monkeypatch.setattr(symmetry._Engine, "_node", counted)
    assert find_isomorphism(g, h) is not None
    assert nodes["stopped"] > 0
    nodes["full"] = 0
    _run_engine(h)
    assert nodes["stopped"] * 10 < nodes["full"], nodes


def test_find_isomorphism_visits_under_three_quarters_of_a_full_search(
        monkeypatch):
    # canon-large's graphs: with jump-back, g1's search plus g2's stopped
    # one visit fewer nodes than one full search; without, they visit more
    sizes = []
    real_node = symmetry._Engine._node

    def counted(engine, *args):
        sizes.append(engine.n)
        return real_node(engine, *args)

    monkeypatch.setattr(symmetry._Engine, "_node", counted)
    for name in ("k4_uniform", "kst_one_each", "kst_two_images"):
        g = _truncation(BY_NAME[name], 2)
        rng = random.Random(5)
        iso = full = 0
        for _ in range(5):
            g1, _ = _relabel(g, rng)
            g2, _ = _relabel(g, rng)
            sizes.clear()
            assert find_isomorphism(g1, g2) is not None
            iso += sizes.count(g.vertex_count)  # not the lobes' searches
            sizes.clear()
            _run_engine(g1)
            full += len(sizes)
        assert iso * 4 < full * 3, (name, iso, full)


def test_find_isomorphism_rejects_by_colour_signature(monkeypatch):
    def fail(engine):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(symmetry._Engine, "run", fail)
    g = named_graph("petersen")
    h, _ = _relabel(g, random.Random(3))
    one = [0] * 9 + [1]
    two = [0] * 8 + [1, 1]
    assert find_isomorphism(g, h, one, two) is None
    assert find_isomorphism(g, h, two, one) is None
    assert find_isomorphism(g, h, one, None) is None
