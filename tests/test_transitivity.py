"""Transitivity checkers, tau tables, k-arcs, and the extension procedure."""

import json
import random
from pathlib import Path

import pytest

from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.catalog import named_graph
from lobes.decomposition import decompose, lobe_classes
from lobes.graph import make_graph
from lobes.symmetry import (GeneratorSet, automorphism_generators,
                            lobe_stabilizer, orbit_partition)
from lobes.transitivity import (ExtensionError, TransitivityError,
                                classify,
                                classify_direct, enumerate_k_arcs,
                                extend_lobe_isomorphism,
                                is_arc_transitive_thm, is_edge_transitive_thm,
                                is_lobe_transitive_thm,
                                is_vertex_transitive_thm, k_arc_orbit_count,
                                tau_table, tree_edge_transitivity)

from brute import brute_automorphisms, brute_orbit_counts
from enumeration import random_connectivity_one_graph

BOWTIE = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _prep(g):
    d = decompose(g)
    c = lobe_classes(g, d)
    return d, c, tau_table(g, d, c)


def test_tau_bowtie():
    d, c, tau = _prep(BOWTIE)
    assert tau.keys == ((0, 0),)
    assert tau.values[(0, 0)] == (1, 1, 2, 1, 1)
    assert not tau.constant[(0, 0)]
    for v in range(5):
        assert tau.row_sum(v) == len(d.lobes_at[v])


def test_tau_p4():
    g = named_graph("path", 4)
    d, c, tau = _prep(g)
    # single K2 class whose stabilizer splits the ends: two labels
    total = [tau.row_sum(v) for v in range(4)]
    assert total == [1, 2, 2, 1]


def test_tau_rejects_single_lobe():
    g = named_graph("k4")
    d = decompose(g)
    c = lobe_classes(g, d)
    with pytest.raises(TransitivityError):
        tau_table(g, d, c)


def test_classify_direct_examples():
    folkman = classify_direct(named_graph("folkman"))
    assert folkman.vertex_orbits == 2 and folkman.edge_orbits == 1
    bowtie = classify_direct(BOWTIE)
    assert (bowtie.vertex_orbits, bowtie.edge_orbits, bowtie.lobe_orbits) == (2, 2, 1)
    petersen = classify_direct(named_graph("petersen"))
    assert (petersen.vertex_orbits, petersen.edge_orbits,
            petersen.arc_orbits) == (1, 1, 1)
    with pytest.raises(TransitivityError):
        classify_direct(make_graph(3, [(0, 1)]))


def test_vertex_transitivity_thm_examples():
    for g in (BOWTIE, named_graph("path", 4)):
        d, c, tau = _prep(g)
        assert is_vertex_transitive_thm(g, d, tau) is False


def test_lobe_transitivity_examples():
    d = decompose(BOWTIE)
    assert is_lobe_transitive_thm(BOWTIE, d, lobe_classes(BOWTIE, d),
                                  automorphism_generators(BOWTIE)).holds

    tri_pendant = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    d = decompose(tri_pendant)
    verdict = is_lobe_transitive_thm(tri_pendant, d,
                                     lobe_classes(tri_pendant, d),
                                     automorphism_generators(tri_pendant))
    assert not verdict.holds
    assert verdict.witness[0] == "nonisomorphic_lobes"

    star = named_graph("star", 3)
    d = decompose(star)
    assert is_lobe_transitive_thm(star, d, lobe_classes(star, d),
                                  automorphism_generators(star)).holds


def test_lobe_transitivity_on_a_large_star():
    # the engine still recurses on this graph, so Aut(g) is given by hand:
    # a transposition of two leaves and the cycle of all 1500 leaves
    star = named_graph("star", 1500)
    n = star.vertex_count
    swap = (0, 2, 1) + tuple(range(3, n))
    cycle = (0,) + tuple(range(2, n)) + (1,)
    gens = GeneratorSet(n, (swap, cycle), "aut")
    d = decompose(star)
    assert is_lobe_transitive_thm(star, d, lobe_classes(star, d), gens).holds


def test_lobe_transitivity_independent_of_base_lobe():
    rng = random.Random(6)
    for _ in range(12):
        g = random_connectivity_one_graph(rng, max_vertices=14)
        d = decompose(g)
        c = lobe_classes(g, d)
        gens = automorphism_generators(g)
        verdicts = {is_lobe_transitive_thm(g, d, c, gens, lobe0=i).holds
                    for i in range(d.lobe_count)}
        assert len(verdicts) == 1


def test_edge_transitivity_examples():
    star = named_graph("star", 4)
    d = decompose(star)
    verdict = is_edge_transitive_thm(star, d, lobe_classes(star, d))
    assert verdict.holds and verdict.case == "3c"
    assert verdict.constants == (4, 1)

    p3 = named_graph("path", 3)
    d = decompose(p3)
    verdict = is_edge_transitive_thm(p3, d, lobe_classes(p3, d))
    assert verdict.holds and verdict.case == "3c"

    d = decompose(BOWTIE)
    assert not is_edge_transitive_thm(BOWTIE, d, lobe_classes(BOWTIE, d)).holds


def test_arc_transitivity_examples():
    d = decompose(BOWTIE)
    assert not is_arc_transitive_thm(BOWTIE, d, lobe_classes(BOWTIE, d)).holds
    star = named_graph("star", 3)
    d = decompose(star)
    assert not is_arc_transitive_thm(star, d, lobe_classes(star, d)).holds


def test_checkers_reject_biconnected_input():
    k4 = named_graph("k4")
    d = decompose(k4)
    c = lobe_classes(k4, d)
    with pytest.raises(TransitivityError):
        is_lobe_transitive_thm(k4, d, c, automorphism_generators(k4))
    with pytest.raises(TransitivityError):
        is_edge_transitive_thm(k4, d, c)
    with pytest.raises(TransitivityError):
        is_arc_transitive_thm(k4, d, c)


def test_tree_edge_transitivity():
    assert tree_edge_transitivity(named_graph("star", 5)) == (1, 5)
    assert tree_edge_transitivity(named_graph("path", 4)) is None
    assert tree_edge_transitivity(make_graph(2, [(0, 1)])) == (1, 1)
    with pytest.raises(TransitivityError):
        tree_edge_transitivity(named_graph("cycle", 4))


def test_k_arc_counts():
    petersen = named_graph("petersen")
    for k in (1, 2, 3):
        assert k_arc_orbit_count(petersen, k) == 1
    assert k_arc_orbit_count(named_graph("star", 3), 1) == 2
    assert k_arc_orbit_count(named_graph("cycle", 5), 1) == 1
    with pytest.raises(TransitivityError):
        k_arc_orbit_count(make_graph(2, [(0, 1)]), 2)


def test_k_arc_enumeration_counts():
    c5 = named_graph("cycle", 5)
    assert len(enumerate_k_arcs(c5, 1)) == 10
    assert len(enumerate_k_arcs(c5, 2)) == 10
    petersen = named_graph("petersen")
    assert len(enumerate_k_arcs(petersen, 3)) == 10 * 3 * 2 * 2


def test_one_arc_count_matches_oracle():
    rng = random.Random(40)
    for _ in range(10):
        g = random_connectivity_one_graph(rng, max_vertices=12)
        assert k_arc_orbit_count(g, 1) == classify_direct(g).arc_orbits


def test_extension_identity_and_swap_on_bowtie():
    d = decompose(BOWTIE)
    ext = extend_lobe_isomorphism(BOWTIE, d, 0, 0, {0: 0, 1: 1, 2: 2}, 1)
    assert ext == {v: v for v in range(5)}

    ext = extend_lobe_isomorphism(BOWTIE, d, 0, 1, {0: 3, 1: 4, 2: 2}, 1)
    perm = tuple(ext[v] for v in range(5))
    assert perm in brute_automorphisms(BOWTIE)


def test_extension_reports_divergence():
    # triangle with one pendant edge at 0 and two pendant edges at 1
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (1, 5)])
    d = decompose(g)
    tri = next(i for i, l in enumerate(d.lobes) if len(l.vertices) == 3)
    # map the triangle onto itself exchanging 0 and 1: pendant counts differ
    iso = {0: 1, 1: 0, 2: 2}
    with pytest.raises(ExtensionError) as err:
        extend_lobe_isomorphism(g, d, tri, tri, iso, 1)
    assert err.value.shell == 1
    assert err.value.vertex in (0, 1)


def _clothesline_depth4():
    import json
    from pathlib import Path

    from lobes.builder import build_truncation, validate_spec, with_depth
    doc = json.load(open(Path(__file__).parent / "fixtures"
                         / "clothesline_i.json"))
    return build_truncation(with_depth(validate_spec(doc), 4))


def test_tau_on_clothesline_truncation():
    g = _clothesline_depth4().graph
    d, c, tau = _prep(g)
    assert tau.keys == ((0, 0),)  # one class of K4 lobes, one orbit label
    col = tau.values[(0, 0)]
    assert col[0] == col[1] == 2
    assert col[2] == col[3] == 1


def test_extension_across_clothesline_lobes():
    from brute import backtracking_isomorphism
    from lobes.decomposition import lobe_ball

    g = _clothesline_depth4().graph
    d = decompose(g)
    central = next(i for i, l in enumerate(d.lobes)
                   if set(l.vertices) == {0, 1, 2, 3})
    adjacent = next(i for i in d.lobes_at[0] if i != central)

    # chain vertices sit in two lobes, free vertices in one
    def split(lobe_id):
        vs = d.lobes[lobe_id].vertices
        chain = [v for v in vs if len(d.lobes_at[v]) == 2]
        free = [v for v in vs if len(d.lobes_at[v]) == 1]
        return chain, free

    chain_c, free_c = split(central)
    chain_a, free_a = split(adjacent)
    iso = dict(zip(chain_c, chain_a)) | dict(zip(free_c, free_a))
    mapping = extend_lobe_isomorphism(g, d, central, adjacent, iso, 2)

    src = lobe_ball(g, d, central, 2)
    tgt = lobe_ball(g, d, adjacent, 2)
    assert set(mapping) == set(src.originals)
    assert set(mapping.values()) == set(tgt.originals)
    for u, v in src.graph.edges:
        a, b = mapping[src.originals[u]], mapping[src.originals[v]]
        assert g.has_edge(a, b)

    # independent oracle: a rooted ball isomorphism exists
    root_colors_src = [1 if src.originals[x] in set(d.lobes[central].vertices)
                       else 0 for x in range(src.graph.vertex_count)]
    root_colors_tgt = [1 if tgt.originals[x] in set(d.lobes[adjacent].vertices)
                       else 0 for x in range(tgt.graph.vertex_count)]
    assert backtracking_isomorphism(src.graph, tgt.graph, root_colors_src,
                                    root_colors_tgt) is not None


def test_extension_rejects_oversized_radius():
    d = decompose(BOWTIE)
    with pytest.raises(TransitivityError):
        extend_lobe_isomorphism(BOWTIE, d, 0, 0, {0: 0, 1: 1, 2: 2}, 2)


def test_extension_rejects_non_ball_domain():
    d = decompose(BOWTIE)
    with pytest.raises(TransitivityError):
        extend_lobe_isomorphism(BOWTIE, d, 0, 0, {0: 0, 1: 1}, 1)


def test_theorems_match_oracle_on_random_graphs():
    rng = random.Random(77)
    for _ in range(20):
        g = random_connectivity_one_graph(rng, max_vertices=12)
        d, c, tau = _prep(g)
        oracle = classify_direct(g)
        assert is_vertex_transitive_thm(g, d, tau) == (oracle.vertex_orbits == 1)
        gens = automorphism_generators(g)
        assert is_lobe_transitive_thm(g, d, c, gens).holds == \
            (oracle.lobe_orbits == 1)
        assert is_edge_transitive_thm(g, d, c).holds == (oracle.edge_orbits == 1)
        assert is_arc_transitive_thm(g, d, c).holds == (oracle.arc_orbits == 1)


def test_flag_closure_gives_every_lobe_stabilizer_orbit():
    rng = random.Random(404)
    graphs = [random_connectivity_one_graph(rng, max_vertices=16)
              for _ in range(20)]
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        spec = validate_spec(json.loads(path.read_text()))
        graphs.append(build_truncation(with_depth(spec, 1)).graph)
    for g in graphs:
        d = decompose(g)
        gens = automorphism_generators(g)
        orbits = orbit_partition(gens, "vertices").cells
        for i, lobe in enumerate(d.lobes):
            members = set(lobe.vertices)
            # the Aut(g) orbits met by lobe i, cut down to it
            cut = [tuple(v for v in orbit if v in members) for orbit in orbits]
            cells = sorted(cell for cell in cut if cell)
            stab = lobe_stabilizer(g, gens, d, i)
            want = [cell for cell in orbit_partition(stab, "vertices").cells
                    if not set(cell).isdisjoint(lobe.vertices)]
            assert cells == want


def test_small_oracle_against_brute_force():
    rng = random.Random(52)
    for _ in range(10):
        g = random_connectivity_one_graph(rng, max_vertices=8)
        if g.vertex_count > 8:
            continue
        counts = classify_direct(g)
        assert (counts.vertex_orbits, counts.edge_orbits,
                counts.arc_orbits) == brute_orbit_counts(g)


def test_classify_report():
    report = classify(BOWTIE)
    assert report.connectivity == "connectivity_one"
    assert report.theorem == {"vertex": False, "lobe": True,
                              "edge": False, "arc": False}
    assert report.consistent
    doc = report.to_json_dict()
    assert doc["oracle"]["lobe_orbits"] == 1

    k4 = classify(named_graph("k4"))
    assert k4.theorem is None and k4.connectivity == "biconnected"

    star = classify(named_graph("star", 3))
    assert star.tree_valences == (1, 3)
    assert star.edge_case == "3c"
