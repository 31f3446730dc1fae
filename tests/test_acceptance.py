"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact (boolean/integer comparisons, no tolerances).
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from lobes.builder import (build_truncation, classify_limit, spec_equivalent,
                           validate_spec, verify_interior,
                           verify_local_transitivity, with_depth)
from lobes.catalog import named_graph
from lobes.decomposition import (connectivity_class, decompose, lobe_classes)
from lobes.graph import induced_subgraph, make_graph
from lobes.symmetry import (automorphism_generators, canonical_certificate,
                            find_isomorphism, group_order, lobe_stabilizer,
                            orbit_partition, restrict_to)
from lobes.transitivity import (classify_direct, is_arc_transitive_thm,
                                is_edge_transitive_thm,
                                is_lobe_transitive_thm,
                                is_vertex_transitive_thm, k_arc_orbit_count,
                                tau_table, tree_edge_transitivity)

from brute import naive_expansion
from enumeration import (all_trees_up_to, connected_graphs_up_to,
                         random_connectivity_one_graph, random_tree)

FIXTURES = Path(__file__).parent / "fixtures"

# enumerated census pins (connected graphs per order: OEIS A001349;
# trees per order: OEIS A000055)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106}

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def _load(name):
    with open(FIXTURES / name) as fh:
        return validate_spec(json.load(fh))


@pytest.fixture(scope="module")
def small_corpus():
    levels = connected_graphs_up_to(7)
    for n, want in CONNECTED_COUNTS.items():
        assert len(levels[n]) == want, f"census mismatch at {n} vertices"
    return [g for n in range(2, 8) for g in levels[n]]


def _four_verdicts(g):
    d = decompose(g)
    classes = lobe_classes(g, d)
    tau = tau_table(g, d, classes)
    return {
        "vertex": is_vertex_transitive_thm(g, d, tau),
        "lobe": is_lobe_transitive_thm(g, d, classes,
                                       automorphism_generators(g)).holds,
        "edge": is_edge_transitive_thm(g, d, classes).holds,
        "arc": is_arc_transitive_thm(g, d, classes).holds,
    }


@pytest.fixture(scope="module")
def classified_corpus(small_corpus):
    out = []
    for g in small_corpus:
        if connectivity_class(g) != "connectivity_one":
            continue
        out.append((g, _four_verdicts(g), classify_direct(g)))
    return out


def test_criterion_1_oracle_equivalence(classified_corpus):
    assert classified_corpus, "corpus should contain connectivity-1 graphs"
    mismatches = []
    for g, thm, oracle in classified_corpus:
        expect = {
            "vertex": oracle.vertex_orbits == 1,
            "lobe": oracle.lobe_orbits == 1,
            "edge": oracle.edge_orbits == 1,
            "arc": oracle.arc_orbits == 1,
        }
        if thm != expect:
            mismatches.append((g.edges, thm, expect))
    assert not mismatches, mismatches[:5]
    print(f"\nACCEPTANCE 1 (oracle equivalence on "
          f"{len(classified_corpus)} connectivity-1 graphs <= 7): PASS")


def _lobe_reps(g):
    d = decompose(g)
    classes = lobe_classes(g, d)
    return [induced_subgraph(g, d.lobes[rep].vertices)[0]
            for rep in classes.class_reps]


def test_criterion_2_implication_chain(classified_corpus):
    rng = random.Random(20260811)
    randoms = [random_connectivity_one_graph(rng, max_vertices=30)
               for _ in range(200)]
    cases = list(classified_corpus)
    for g in randoms:
        cases.append((g, _four_verdicts(g), classify_direct(g)))
    for g, thm, oracle in cases:
        assert not thm["arc"] or thm["edge"], g.edges
        assert not thm["edge"] or thm["lobe"], g.edges
        assert not (oracle.arc_orbits == 1) or oracle.edge_orbits == 1, g.edges
        assert not (oracle.edge_orbits == 1) or oracle.lobe_orbits == 1, g.edges
        if thm["edge"]:
            for rep in _lobe_reps(g):
                assert classify_direct(rep).edge_orbits == 1, g.edges
        if thm["arc"]:
            for rep in _lobe_reps(g):
                assert classify_direct(rep).arc_orbits == 1, g.edges
    print(f"\nACCEPTANCE 2 (implication chain on {len(cases)} graphs): PASS")


def test_criterion_3_chord5cyc_fixture():
    spec = _load("chord5cyc.json")
    built = build_truncation(spec)  # depth 1
    reference = naive_expansion(spec.lambda0, spec.q_cells, spec.r_of_q,
                                spec.mu)
    assert built.graph.vertex_count == reference.vertex_count
    mapping = find_isomorphism(built.graph, reference)
    assert mapping is not None, "depth-1 truncation differs from reference"
    deep = build_truncation(with_depth(spec, 3))
    report = verify_interior(deep, with_depth(spec, 3))
    assert report.ok, report.violations[:5]
    print("\nACCEPTANCE 3 (chord5cyc fixture: reference expansion + "
          "interior recount): PASS")


def test_criterion_4_clothesline_fixture():
    specs = {key: _load(f"clothesline_{key}.json")
             for key in ("i", "ii", "iii", "iv")}
    for a, b in itertools.combinations(specs, 2):
        assert spec_equivalent(specs[a], specs[b], 3), (a, b)

    deep = build_truncation(with_depth(specs["i"], 4))
    g4 = deep.graph
    gens = automorphism_generators(g4)
    d4 = decompose(g4)
    central = next(i for i, lobe in enumerate(d4.lobes)
                   if set(lobe.vertices) == {0, 1, 2, 3})
    stab = lobe_stabilizer(g4, gens, d4, central)
    restricted = restrict_to(stab, (0, 1, 2, 3))
    assert group_order(restricted) == 4
    assert orbit_partition(restricted, "vertices").cells == ((0, 1), (2, 3))
    print("\nACCEPTANCE 4 (clothesline quartet equivalent at depth 3; "
          "central stabilizer of order 4 with orbits {v1,v2},{v3,v4}): PASS")


def test_criterion_5_folkman():
    g = named_graph("folkman")
    assert g.vertex_count == 20
    assert set(g.degrees()) == {4}
    counts = classify_direct(g)
    assert counts.edge_orbits == 1
    assert counts.vertex_orbits == 2
    print("\nACCEPTANCE 5 (Folkman: 20 vertices, 4-regular, semisymmetric): "
          "PASS")


def test_criterion_6_petersen():
    petersen = named_graph("petersen")
    for k in (1, 2, 3):
        assert k_arc_orbit_count(petersen, k) == 1, k
    unbalanced = classify_limit(_load("petersen_unbalanced.json"))
    assert unbalanced.lobe_transitive
    assert not unbalanced.vertex_transitive
    assert not unbalanced.edge_transitive
    balanced = classify_limit(_load("petersen_balanced.json"))
    assert balanced.vertex_transitive and balanced.edge_transitive
    print("\nACCEPTANCE 6 (Petersen: 1-, 2-, 3-arc-transitive; lobe limits "
          "for m1!=m2 and m1=m2): PASS")


def test_criterion_7_tree_valence_rule():
    levels = all_trees_up_to(10)
    for n, want in TREE_COUNTS.items():
        assert len(levels[n]) == want, f"tree census mismatch at {n}"
    trees = [t for n in range(2, 11) for t in levels[n]]
    rng = random.Random(424242)
    trees += [random_tree(rng, rng.randint(2, 40)) for _ in range(100)]
    for t in trees:
        pair = tree_edge_transitivity(t)
        counts = classify_direct(t)
        assert (pair is not None) == (counts.edge_orbits == 1), t.edges
        if pair is not None:
            assert (pair[0] == pair[1]) == (counts.arc_orbits == 1), t.edges
    print(f"\nACCEPTANCE 7 (tree valence-pair rule on {len(trees)} trees): "
          "PASS")


def test_criterion_8_kst_limit_cases():
    case_a = classify_limit(_load("kst_equal_3a.json"))
    assert case_a.edge_transitive and case_a.edge_case == "3a"
    case_b = classify_limit(_load("kst_one_each.json"))
    assert case_b.edge_transitive and case_b.edge_case == "3b"
    assert case_b.vertex_transitive
    case_c = classify_limit(_load("kst_two_images.json"))
    assert case_c.edge_transitive and case_c.edge_case == "3c"
    assert not case_c.vertex_transitive
    print("\nACCEPTANCE 8 (complete-bipartite limit cases 3a/3b/3c): PASS")


def test_criterion_9_holt():
    g = named_graph("holt")
    counts = classify_direct(g)
    assert counts.vertex_orbits == 1
    assert counts.edge_orbits == 1
    assert counts.arc_orbits == 2
    doc = {
        "lambda0": {"n": g.vertex_count, "edges": [list(e) for e in g.edges]},
        "h": "aut",
        "r_partition": [list(range(g.vertex_count))],
        "mu": [{"k": 0, "values": {"0": 2}}],
        "depth": 0,
    }
    limit = classify_limit(validate_spec(doc))
    assert limit.vertex_transitive and limit.edge_transitive
    assert not limit.arc_transitive
    print("\nACCEPTANCE 9 (Holt: vertex- and edge- but not arc-transitive, "
          "as host and as lobe): PASS")


def test_criterion_10_builder_soundness():
    for name in FIXTURE_NAMES:
        spec = _load(name)
        seed_cert = canonical_certificate(spec.lambda0)
        results = {}
        for depth in (spec.depth, 4):
            deep = with_depth(spec, depth)
            result = build_truncation(deep)
            results[depth] = result
            assert verify_interior(result, deep).ok, name
        # every lobe is a certificate-exact copy of the seed
        result = results[4]
        n0 = spec.lambda0.vertex_count
        for rec in result.lobes:
            pos = {v: i for i, v in enumerate(sorted(rec.sigma))}
            edges = [(pos[rec.sigma[u]], pos[rec.sigma[v]])
                     for u, v in spec.lambda0.edges]
            assert canonical_certificate(make_graph(n0, edges)) == seed_cert, name
        # monotone growth, identity embedding
        prev = None
        for depth in range(4):
            cur = build_truncation(with_depth(spec, depth))
            if prev is not None:
                assert set(prev.graph.edges) <= set(cur.graph.edges), name
                extra = set(cur.graph.edges) - set(prev.graph.edges)
                assert all(max(e) >= prev.graph.vertex_count
                           for e in extra), name
                assert prev.lobes == cur.lobes[:len(prev.lobes)], name
            prev = cur
        # all sufficiently interior lobes see the same radius-2 ball
        report = verify_local_transitivity(results[4], 2)
        assert report.ok, (name, report.witness)
    print(f"\nACCEPTANCE 10 (builder soundness over "
          f"{len(FIXTURE_NAMES)} fixture specs): PASS")
