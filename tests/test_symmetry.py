"""Symmetry kernels against the brute-force oracle."""

import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from lobes import decomposition
from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.catalog import named_graph
from lobes.decomposition import connectivity_class, decompose, lobe_classes
from lobes.graph import make_graph, relabel_graph
from lobes.symmetry import (GeneratorSet, _aut_group, _color_cells, _Engine,
                            _run_engine, automorphism_generators,
                            canonical_certificate, compose, find_isomorphism,
                            generator_set, group_order, inverse_perm,
                            is_automorphism, lobe_stabilizer, orbit_partition,
                            restrict_to)

from brute import backtracking_isomorphism, brute_automorphisms
from enumeration import (all_graphs_up_to, connected_graphs_up_to,
                         random_connectivity_one_graph)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield make_graph(n, [pairs[i] for i in range(len(pairs))
                             if mask >> i & 1])


def test_perm_algebra():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse_perm(p)) == (0, 1, 2)


def test_generator_set_validation():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        generator_set([(0, 0, 1)], 3)
    with pytest.raises(ValueError):
        generator_set([(1, 2, 0)], 3, graph=g)
    gens = generator_set([(1, 0, 2)], 3, graph=g)
    assert gens.generators == ((1, 0, 2),)


def test_group_matches_brute_force_exhaustively():
    for n in range(1, 6):
        for g in _all_graphs(n):
            auts = brute_automorphisms(g)
            gens = automorphism_generators(g)
            for p in gens.generators:
                assert is_automorphism(g, p)
            assert group_order(gens) == len(auts)


def test_group_matches_brute_force_random():
    rng = random.Random(20210)
    for _ in range(60):
        n = rng.randint(6, 8)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = make_graph(n, edges)
        assert group_order(automorphism_generators(g)) == \
            len(brute_automorphisms(g))


def test_certificate_invariant_under_relabeling():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 10)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.45]
        g = make_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_certificate(g) == \
            canonical_certificate(relabel_graph(g, perm))


def test_certificate_separates_iff_isomorphic():
    graphs = [g for n in range(1, 6) for g in _all_graphs(n)]
    rng = random.Random(4)
    sample = rng.sample(graphs, 60)
    for g1 in sample:
        for g2 in sample:
            same_cert = canonical_certificate(g1) == canonical_certificate(g2)
            oracle = backtracking_isomorphism(g1, g2) is not None
            assert same_cert == oracle
            mapping = find_isomorphism(g1, g2)
            assert (mapping is not None) == oracle
            if mapping is not None:
                assert all(g2.has_edge(mapping[u], mapping[v])
                           for u, v in g1.edges)


def test_cert_distinguishes_path_from_star():
    p4 = named_graph("path", 4)
    star = named_graph("star", 3)
    assert canonical_certificate(p4) != canonical_certificate(star)


def test_p3_group_order():
    assert group_order(automorphism_generators(named_graph("path", 3))) == 2


def test_chorded_mirror_isomorphism_maps_chord_to_chord():
    g = named_graph("chorded_5_cycle")
    mirror = relabel_graph(g, (4, 3, 2, 1, 0))
    mapping = find_isomorphism(g, mirror)
    assert mapping is not None
    # the chord joins the two degree-3 vertices; any isomorphism must
    # carry it onto the mirror's chord
    chord = next((u, v) for u, v in g.edges
                 if g.degree(u) == 3 and g.degree(v) == 3)
    image = tuple(sorted((mapping[chord[0]], mapping[chord[1]])))
    mirror_chord = next((u, v) for u, v in mirror.edges
                        if mirror.degree(u) == 3 and mirror.degree(v) == 3)
    assert image == mirror_chord


def test_colored_certificate_invariance():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = make_graph(n, edges)
        colors = [rng.randint(0, 2) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = relabel_graph(g, perm)
        colors2 = [0] * n
        for v in range(n):
            colors2[perm[v]] = colors[v]
        assert canonical_certificate(g, colors) == \
            canonical_certificate(g2, colors2)


def test_petersen_certificate_under_random_relabelings():
    g = named_graph("petersen")
    rng = random.Random(5)
    for _ in range(10):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_certificate(relabel_graph(g, perm)) == \
            canonical_certificate(g)


def test_colored_isomorphism_respects_colors():
    p3 = named_graph("path", 3)
    # path 0-1-2: coloring the two leaves differently kills the reflection
    gens = automorphism_generators(p3, colors=[0, 1, 2])
    assert group_order(gens) == 1
    gens = automorphism_generators(p3, colors=[0, 1, 0])
    assert group_order(gens) == 2
    assert find_isomorphism(p3, p3, [0, 1, 0], [0, 1, 0]) is not None
    assert find_isomorphism(p3, p3, [0, 1, 0], [0, 0, 1]) is None


def test_orbit_cells_have_equal_degrees():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = make_graph(n, edges)
        gens = automorphism_generators(g)
        for cell in orbit_partition(gens, "vertices").cells:
            assert len({g.degree(v) for v in cell}) == 1


def test_orbit_partition_examples():
    chorded = named_graph("chorded_5_cycle")
    gens = automorphism_generators(chorded)
    cells = orbit_partition(gens, "vertices").cells
    assert sorted(len(c) for c in cells) == [1, 2, 2]
    trivial = generator_set([], 5)
    part = orbit_partition(trivial, "vertices")
    assert part.cell_count == 5


def test_orbit_partition_rejects_degree_mismatch():
    g = named_graph("path", 3)
    gens = generator_set([(1, 0)], 2)
    with pytest.raises(ValueError):
        orbit_partition(gens, "edges", graph=g)


BOWTIE = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


@pytest.mark.parametrize("degree", [3, 6])
def test_lobe_orbits_reject_degree_mismatch(degree):
    gens = generator_set([tuple(range(degree))], degree)
    with pytest.raises(ValueError, match=f"generator degree {degree} does "
                       "not match graph on 5 vertices"):
        orbit_partition(gens, "lobes", decomposition=decompose(BOWTIE))


@pytest.mark.parametrize("vertices", [[0, 1, 7], [-1, 0, 1, 2]])
def test_restrict_to_rejects_vertices_outside_the_degree(vertices):
    gens = automorphism_generators(BOWTIE)
    with pytest.raises(ValueError, match=r"vertex outside 0\.\.4"):
        restrict_to(gens, vertices)


# swapping 0 and 3 is a permutation but not an automorphism of the bowtie
_NOT_AUT = generator_set([(3, 1, 2, 0, 4)], 5)


@pytest.mark.parametrize("call, message", [
    (lambda: orbit_partition(_NOT_AUT, "edges", graph=BOWTIE),
     "generator does not act on the edges domain"),
    (lambda: orbit_partition(_NOT_AUT, "arcs", graph=BOWTIE),
     "generator does not act on the arcs domain"),
    (lambda: orbit_partition(_NOT_AUT, "lobes",
                             decomposition=decompose(BOWTIE)),
     "generator does not permute the lobes"),
    (lambda: restrict_to(automorphism_generators(BOWTIE), [0, 1, 2]),
     "vertex set is not invariant under the generators"),
], ids=["edges", "arcs", "lobes", "restrict_to"])
def test_reject_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_group_order_examples():
    assert group_order(automorphism_generators(named_graph("k4"))) == 24
    assert group_order(automorphism_generators(named_graph("petersen"))) == 120
    assert group_order(generator_set([], 7)) == 1
    sym5 = generator_set([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5)
    assert group_order(sym5) == 120


def test_group_order_degree_bound():
    gens = generator_set([], 10)
    with pytest.raises(ValueError):
        group_order(gens, degree_bound=5)


def test_lobe_stabilizer_fixes_the_lobe():
    bowtie = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    d = decompose(bowtie)
    gens = automorphism_generators(bowtie)
    stab = lobe_stabilizer(bowtie, gens, d, 0)
    lobe_edges = set(d.lobes[0].edges)
    for p in stab.generators:
        mapped = {tuple(sorted((p[u], p[v]))) for u, v in lobe_edges}
        assert mapped == lobe_edges
    # restricted orbits on the triangle: cut vertex alone, outer pair together
    restr = restrict_to(stab, d.lobes[0].vertices)
    cells = orbit_partition(restr, "vertices").cells
    assert cells == ((0, 1), (2,))
    assert group_order(restr) == 2


def test_stabilizer_orbits_refine_graph_orbits():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(5, 9)
        # tree-like: guaranteed connectivity 1
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        g = make_graph(n, edges)
        d = decompose(g)
        gens = automorphism_generators(g)
        big = orbit_partition(gens, "vertices").cell_index()
        stab = lobe_stabilizer(g, gens, d, 0)
        for cell in orbit_partition(stab, "vertices").cells:
            assert len({big[v] for v in cell}) == 1


def test_single_lobe_stabilizer_is_whole_group():
    k4 = named_graph("k4")
    d = decompose(k4)
    gens = automorphism_generators(k4)
    stab = lobe_stabilizer(k4, gens, d, 0)
    assert group_order(stab) == 24


def test_orbit_stabilizer_identity():
    # |Aut(g)| = |stabilizer of a lobe| * |orbit of that lobe|
    from enumeration import random_connectivity_one_graph

    rng = random.Random(808)
    for _ in range(20):
        g = random_connectivity_one_graph(rng, max_vertices=16)
        gens = automorphism_generators(g)
        d = decompose(g)
        full = group_order(gens)
        cells = orbit_partition(gens, "lobes", decomposition=d).cells
        for lobe_id in range(d.lobe_count):
            stab = lobe_stabilizer(g, gens, d, lobe_id)
            orbit_size = next(len(c) for c in cells if lobe_id in c)
            assert group_order(stab) * orbit_size == full


def test_symmetric_and_cyclic_group_orders():
    import math
    for n in range(2, 9):
        sym = generator_set([tuple([1, 0] + list(range(2, n))),
                             tuple(list(range(1, n)) + [0])], n)
        assert group_order(sym) == math.factorial(n)
        cyc = generator_set([tuple(list(range(1, n)) + [0])], n)
        assert group_order(cyc) == n


def test_determinism():
    g = named_graph("folkman")
    a = automorphism_generators(g)
    b = automorphism_generators(g)
    assert a == b
    assert canonical_certificate(g) == canonical_certificate(g)


# ---------------------------------------------------------------------------
# The order the search records against the stabilizer chain
# ---------------------------------------------------------------------------

def _chain_order(gens):
    """The Schreier-Sims order of the same generators, with no recorded one."""
    return group_order(generator_set(gens.generators, gens.degree))


def test_recorded_order_on_all_small_connected_graphs():
    for n, graphs in connected_graphs_up_to(7).items():
        for g in graphs:
            gens = automorphism_generators(g)
            assert gens.order is not None
            assert group_order(gens) == gens.order == _chain_order(gens), \
                g.edges
            if n <= 6:
                assert gens.order == len(brute_automorphisms(g)), g.edges


def test_recorded_order_on_random_block_trees():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_connectivity_one_graph(rng, max_vertices=24)
        gens = automorphism_generators(g)
        assert gens.order == _chain_order(gens), g.edges
        colors = [rng.randrange(2) for _ in range(g.vertex_count)]
        gens = automorphism_generators(g, colors)
        assert gens.order == _chain_order(gens), (g.edges, colors)
        for rep in lobe_classes(g, decompose(g)).rep_generators:
            assert rep.order == _chain_order(rep)


def test_recorded_order_on_fixture_truncations():
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
    assert len(fixtures) == 12
    for path in fixtures:
        spec = validate_spec(json.loads(path.read_text()))
        g = build_truncation(with_depth(spec, 1)).graph
        gens = automorphism_generators(g)
        assert gens.order == _chain_order(gens), path.name


def test_only_search_results_carry_an_order():
    bowtie = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    gens = automorphism_generators(bowtie)
    assert gens.order == 8
    assert gens == GeneratorSet(5, gens.generators, "aut")
    d = decompose(bowtie)
    stab = lobe_stabilizer(bowtie, gens, d, 0)
    assert generator_set(gens.generators, 5).order is None
    assert restrict_to(gens, range(5)).order is None
    assert stab.order is None
    assert restrict_to(stab, d.lobes[0].vertices).order is None


def test_recorded_order_ignores_the_degree_bound():
    gens = automorphism_generators(named_graph("path", 12))
    assert group_order(gens, degree_bound=5) == 2


# ---------------------------------------------------------------------------
# Jump-back against the full search
# ---------------------------------------------------------------------------

def _full_search_lobe_classes(g, d):
    """``lobe_classes`` with every engine run a full search."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "_run_engine",
                   lambda sub, colors=None, jump=False: _run_engine(sub))
        return lobe_classes(g, d)


def _assert_same_group(jump, full, graph, chain=True):
    """``jump`` generates the group of ``full``: its Schreier-Sims order
    (with ``chain``) is the recorded one and its orbits on vertices, edges
    and arcs are equal."""
    assert jump.order == full.order, graph.edges
    if chain:
        assert _chain_order(jump) == jump.order, graph.edges
    for domain in ("vertices", "edges", "arcs"):
        assert orbit_partition(jump, domain, graph=graph) == \
            orbit_partition(full, domain, graph=graph), (graph.edges, domain)


def _assert_jump_back_exact(g, colors=None, chain=True):
    """The jump-back search keeps the full search's key, labeling and order,
    and its fewer generators generate the same group.  Without colours, on
    a connectivity-1 graph, the lobe orbits and every ``lobe_classes``
    field but the generator lists are also the full search's."""
    cells, _ = _color_cells(g.vertex_count, colors)
    key, lab, gens, order = _Engine(g, cells).run()
    jkey, jlab, jgens, jorder = _Engine(g, cells, jump=True).run()
    assert (jkey, jlab, jorder) == (key, lab, order), (g.edges, colors)
    full = GeneratorSet(g.vertex_count, tuple(gens), "aut", order)
    jump = GeneratorSet(g.vertex_count, tuple(jgens), "aut", jorder)
    _assert_same_group(jump, full, g, chain)
    if colors is not None or connectivity_class(g) != "connectivity_one":
        return
    assert _aut_group(g) == jump
    d = decompose(g)
    assert orbit_partition(jump, "lobes", decomposition=d) == \
        orbit_partition(full, "lobes", decomposition=d), g.edges
    classes = lobe_classes(g, d)
    ref = _full_search_lobe_classes(g, d)
    assert dataclasses.replace(classes, rep_generators=()) == \
        dataclasses.replace(ref, rep_generators=()), g.edges
    for rep, rep_gens, ref_gens in zip(classes.class_reps,
                                       classes.rep_generators,
                                       ref.rep_generators):
        _assert_same_group(rep_gens, ref_gens, d.lobes[rep].subgraph()[0])


def test_jump_back_is_exact_on_all_small_graphs():
    rng = random.Random(14)
    for graphs in all_graphs_up_to(7).values():
        for g in graphs:
            _assert_jump_back_exact(g)
            _assert_jump_back_exact(
                g, [rng.randrange(2) for _ in range(g.vertex_count)])


def test_jump_back_is_exact_on_random_block_trees():
    rng = random.Random(2014)
    for _ in range(300):
        g = random_connectivity_one_graph(rng, max_vertices=24)
        _assert_jump_back_exact(g)
        _assert_jump_back_exact(
            g, [rng.randrange(2) for _ in range(g.vertex_count)])


def test_jump_back_is_exact_on_fixture_truncations():
    rng = random.Random(81)
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        spec = validate_spec(json.loads(path.read_text()))
        # petersen_balanced's full search at depth 2 takes seconds
        depths = (1,) if path.stem == "petersen_balanced" else (1, 2)
        for depth in depths:
            g = build_truncation(with_depth(spec, depth)).graph
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            # _Chain's Schreier-Sims takes seconds from about 100 vertices
            # on these groups; the orbits are compared on every graph
            _assert_jump_back_exact(relabel_graph(g, perm),
                                    chain=g.vertex_count <= 100)
