"""Lobe decomposition, classes, and lobe balls."""

import json
import random
from pathlib import Path

import pytest

from lobes import symmetry
from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.catalog import named_graph
from lobes.decomposition import (DecompositionError,
                                 _biconnected_edge_groups, connectivity_class,
                                 decompose, lobe_ball, lobe_classes,
                                 lobe_distances)
from lobes.graph import induced_subgraph, make_graph, relabel_graph
from lobes.symmetry import (automorphism_generators, find_isomorphism,
                            generator_set, group_order, is_automorphism,
                            orbit_partition)

from brute import brute_automorphisms, brute_blocks, brute_is_cut_vertex
from enumeration import all_graphs_up_to, random_connectivity_one_graph

FIXTURES = Path(__file__).parent / "fixtures"

BOWTIE = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_bowtie():
    d = decompose(BOWTIE)
    assert d.lobe_count == 2
    assert [l.vertices for l in d.lobes] == [(0, 1, 2), (2, 3, 4)]
    assert d.cut_vertices == (2,)
    assert d.tree_edges == ((0, 2), (1, 2))


def test_chorded_5_cycle_is_one_lobe():
    d = decompose(named_graph("chorded_5_cycle"))
    assert d.lobe_count == 1
    assert d.cut_vertices == ()


def test_path_p4():
    d = decompose(named_graph("path", 4))
    assert d.lobe_count == 3
    assert all(len(l.edges) == 1 for l in d.lobes)
    assert d.cut_vertices == (1, 2)


def test_connectivity_class():
    assert connectivity_class(named_graph("k4")) == "biconnected"
    assert connectivity_class(BOWTIE) == "connectivity_one"
    assert connectivity_class(make_graph(2, [(0, 1)])) == "single_K2"
    assert connectivity_class(make_graph(3, [(0, 1)])) == "disconnected"
    assert connectivity_class(make_graph(1, [])) == "disconnected"


def test_decompose_rejects_bad_inputs():
    with pytest.raises(DecompositionError):
        decompose(make_graph(3, [(0, 1)]))
    with pytest.raises(DecompositionError):
        decompose(make_graph(3, []))


def test_random_graphs_satisfy_decomposition_invariants():
    rng = random.Random(71)
    for _ in range(25):
        g = random_connectivity_one_graph(rng, max_vertices=14)
        d = decompose(g)
        # lobes partition the edges
        all_edges = [e for lobe in d.lobes for e in lobe.edges]
        assert sorted(all_edges) == list(g.edges)
        # a lobe's own edges build its induced subgraph
        for lobe in d.lobes:
            assert lobe.subgraph() == induced_subgraph(g, lobe.vertices)
        # two lobes share at most one vertex
        for i in range(d.lobe_count):
            for j in range(i + 1, d.lobe_count):
                shared = set(d.lobes[i].vertices) & set(d.lobes[j].vertices)
                assert len(shared) <= 1
        # cut vertices = removal disconnects (independent oracle)
        cuts = set(d.cut_vertices)
        for v in range(g.vertex_count):
            assert (v in cuts) == brute_is_cut_vertex(g, v)
        # block-cut tree identity
        assert d.lobe_count - 1 == sum(
            len(d.lobes_at[v]) - 1 for v in d.cut_vertices)


def test_lobe_ball_growth():
    d = decompose(BOWTIE)
    b0 = lobe_ball(BOWTIE, d, 0, 0)
    assert b0.originals == (0, 1, 2)
    assert b0.graph.edge_count == 3
    b1 = lobe_ball(BOWTIE, d, 0, 1)
    assert b1.originals == (0, 1, 2, 3, 4)

    p4 = named_graph("path", 4)
    dp = decompose(p4)
    mid = next(i for i, l in enumerate(dp.lobes) if l.vertices == (1, 2))
    assert lobe_ball(p4, dp, mid, 1).originals == (0, 1, 2, 3)


def _tree_bfs_lobe_distances(d, start):
    """Independent oracle: BFS on the block-cut tree's explicit edge list.

    Lobe-to-lobe distance in the lobe-adjacency sense is half the distance
    in the bipartite block-cut tree.
    """
    adj = {}
    for lobe_id, cut in d.tree_edges:
        adj.setdefault(("L", lobe_id), []).append(("C", cut))
        adj.setdefault(("C", cut), []).append(("L", lobe_id))
    dist = {("L", start): 0}
    queue = [("L", start)]
    while queue:
        node = queue.pop(0)
        for nxt in adj.get(node, []):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    out = []
    for i in range(d.lobe_count):
        out.append(dist.get(("L", i), 0) // 2)
    return out


def test_lobe_ball_matches_block_cut_tree_bfs():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connectivity_one_graph(rng, max_vertices=16)
        d = decompose(g)
        dist = lobe_distances(d, 0)
        assert dist == _tree_bfs_lobe_distances(d, 0)
        for r in range(max(dist) + 1):
            ball = lobe_ball(g, d, 0, r)
            want = tuple(i for i in range(d.lobe_count) if dist[i] <= r)
            assert ball.lobe_ids == want
        # the full-radius ball is the whole graph
        full = lobe_ball(g, d, 0, max(dist))
        assert full.graph.vertex_count == g.vertex_count


def test_lobe_ball_rejects_bad_lobe():
    d = decompose(BOWTIE)
    with pytest.raises(DecompositionError):
        lobe_ball(BOWTIE, d, 99, 1)


def test_lobe_classes_bowtie():
    d = decompose(BOWTIE)
    c = lobe_classes(BOWTIE, d)
    assert c.class_count == 1
    assert c.class_reps == (0,)


def test_lobe_classes_mixed():
    g = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    c = lobe_classes(g, decompose(g))
    assert c.class_count == 2


def test_lobe_classes_runs_the_engine_once_per_distinct_lobe(monkeypatch):
    runs = []
    search = symmetry._Engine.run

    def counted_search(engine):
        runs.append(engine.edges)
        return search(engine)

    monkeypatch.setattr(symmetry._Engine, "run", counted_search)
    rng = random.Random(29)
    graphs = [random_connectivity_one_graph(rng, max_vertices=18)
              for _ in range(10)]
    graphs += [named_graph("path", 6), BOWTIE]
    for g in graphs:
        d = decompose(g)
        runs.clear()
        lobe_classes(g, d)
        # one run per distinct local edge tuple, in first-seen order
        assert runs == list(dict.fromkeys(l.local_edges() for l in d.lobes))
    # the bowtie's two triangles share one run
    assert runs == [((0, 1), (0, 2), (1, 2))]


def test_rep_generators_generate_the_representative_group():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connectivity_one_graph(rng, max_vertices=14)
        d = decompose(g)
        c = lobe_classes(g, d)
        assert len(c.rep_generators) == c.class_count
        for rep, gens in zip(c.class_reps, c.rep_generators):
            sub = d.lobes[rep].subgraph()[0]
            assert gens.degree == sub.vertex_count
            assert all(is_automorphism(sub, p) for p in gens)
            # the Schreier-Sims order of the list itself, not the recorded
            # one, so the generators must generate the whole group
            assert group_order(generator_set(gens.generators, gens.degree)) \
                == gens.order == len(brute_automorphisms(sub))


def test_sigma_maps_are_isomorphisms_with_consistent_labels():
    rng = random.Random(13)
    for _ in range(10):
        g = random_connectivity_one_graph(rng, max_vertices=18)
        d = decompose(g)
        c = lobe_classes(g, d)
        for i, lobe in enumerate(d.lobes):
            rep = c.class_reps[c.class_of[i]]
            rep_lobe = d.lobes[rep]
            sig = c.sigma[i]
            # sigma is an isomorphism from the representative onto lobe i
            pos = {v: x for x, v in enumerate(rep_lobe.vertices)}
            for u, v in rep_lobe.edges:
                assert g.has_edge(sig[pos[u]], sig[pos[v]])
            # orbit labels transport along sigma
            for x, rv in enumerate(rep_lobe.vertices):
                assert c.vertex_label[i][sig[x]] == c.vertex_label[rep][rv]


def test_lobe_classes_on_deep_truncations():
    # grown truncations repeat a few lobe subgraphs many times over, so
    # almost every lobe's sigma and labels come from a shared engine run
    for path in sorted(FIXTURES.glob("*.json")):
        with open(path) as fh:
            spec = with_depth(validate_spec(json.load(fh)), 3)
        g = build_truncation(spec).graph
        d = decompose(g)
        c = lobe_classes(g, d)
        rep_cells = [orbit_partition(gens, "vertices").cell_index()
                     for gens in c.rep_generators]
        own_orbits = {}
        for i, lobe in enumerate(d.lobes):
            k = c.class_of[i]
            rep_edges = d.lobes[c.class_reps[k]].local_edges()
            sig = c.sigma[i]
            assert sorted(sig) == list(lobe.vertices), path.name
            assert sorted(tuple(sorted((sig[u], sig[v])))
                          for u, v in rep_edges) == list(lobe.edges), path.name
            assert c.vertex_label[i] == {sig[x]: j for x, j
                                         in rep_cells[k].items()}, path.name
            # the transported labels are lobe i's own orbits
            edges = lobe.local_edges()
            if edges not in own_orbits:
                sub = lobe.subgraph()[0]
                own_orbits[edges] = orbit_partition(
                    automorphism_generators(sub), "vertices").cells
            labelled: dict[int, set] = {}
            for v, j in c.vertex_label[i].items():
                labelled.setdefault(j, set()).add(v)
            assert {frozenset(lobe.vertices[x] for x in cell)
                    for cell in own_orbits[edges]} == \
                {frozenset(cell) for cell in labelled.values()}, path.name


def test_three_glued_chorded_cycles_form_one_class():
    # three chorded 5-cycles glued in a path
    base = named_graph("chorded_5_cycle")
    edges = list(base.edges)
    # second copy glued at vertex 4 (copy vertices 5..8, vertex 4 plays its 0)
    second = {0: 4, 1: 5, 2: 6, 3: 7, 4: 8}
    edges += [(min(second[u], second[v]), max(second[u], second[v]))
              for u, v in base.edges]
    third = {0: 8, 1: 9, 2: 10, 3: 11, 4: 12}
    edges += [(min(third[u], third[v]), max(third[u], third[v]))
              for u, v in base.edges]
    g = make_graph(13, edges)
    d = decompose(g)
    assert d.lobe_count == 3
    c = lobe_classes(g, d)
    assert c.class_count == 1
    # cross-check by pairwise explicit isomorphism search
    subs = [induced_subgraph(g, lobe.vertices)[0] for lobe in d.lobes]
    for i in range(3):
        for j in range(3):
            assert find_isomorphism(subs[i], subs[j]) is not None


def _component_count(g) -> int:
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v
    for u, v in g.edges:
        root[find(u)] = find(v)
    return sum(find(v) == v for v in range(g.vertex_count))


def test_blocks_equal_the_brute_force_partition():
    rng = random.Random("blocks")
    for graphs in all_graphs_up_to(6).values():
        for g0 in graphs:
            perm = list(range(g0.vertex_count))
            rng.shuffle(perm)
            for g in (g0, relabel_graph(g0, perm)):
                blocks, components = _biconnected_edge_groups(g)
                assert components == _component_count(g)
                assert {frozenset(edges) for _, edges in blocks} == \
                    brute_blocks(g), g.edges
                for vertices, edges in blocks:
                    assert edges == sorted(edges)
                    assert sorted(vertices) == sorted({v for e in edges
                                                       for v in e})
