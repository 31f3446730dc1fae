"""Build-spec validation, truncation growth, and limit classification."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from lobes.builder import (BuildSpecError, LobeRecord, BuildResult,
                           ResourceCapError, build_truncation, classify_limit,
                           spec_equivalent, spec_to_json_dict, validate_spec,
                           verify_interior, verify_local_transitivity,
                           with_depth)
from lobes.graph import make_graph, serialize_graph
from lobes.symmetry import automorphism_generators, canonical_certificate

from brute import recount_interior
from enumeration import random_spec_doc

FIXTURES = Path(__file__).parent / "fixtures"

K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def load_spec(name):
    with open(FIXTURES / name) as fh:
        return validate_spec(json.load(fh))


def chord_doc(**overrides):
    doc = {
        "lambda0": {"n": 5,
                    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 2]]},
        "h": "aut",
        "r_partition": [[0, 2, 3, 4], [1]],
        "mu": [{"k": 0, "values": {"0": 3, "2": 1}},
               {"k": 1, "values": {"1": 2}}],
        "depth": 1,
    }
    doc.update(overrides)
    return doc


def test_chord5cyc_spec_is_valid():
    spec = validate_spec(chord_doc())
    assert spec.q_cells == ((0, 2), (1,), (3, 4))
    assert spec.r_of_q == (0, 1, 0)
    assert spec.mu == ((3, 0, 1), (0, 2, 0))


def test_positivity_iff_condition():
    # orbit cell 2 lies in r-cell 0, so mu[0][2] = 0 must be rejected
    bad = chord_doc(mu=[{"k": 0, "values": {"0": 3}},
                        {"k": 1, "values": {"1": 2}}])
    with pytest.raises(BuildSpecError, match="must be positive"):
        validate_spec(bad)
    bad = chord_doc(mu=[{"k": 0, "values": {"0": 3, "2": 1, "1": 1}},
                        {"k": 1, "values": {"1": 2}}])
    with pytest.raises(BuildSpecError, match="must be zero"):
        validate_spec(bad)


def test_single_lobe_triviality_rejected():
    doc = {
        "lambda0": {"n": 4, "edges": K4_EDGES},
        "h": [],
        "r_partition": [[0], [1], [2], [3]],
        "mu": [{"k": k, "values": {str(k): 1}} for k in range(4)],
        "depth": 1,
    }
    with pytest.raises(BuildSpecError, match="single lobe"):
        validate_spec(doc)


def test_non_biconnected_seed_rejected():
    doc = chord_doc(lambda0={"n": 3, "edges": [[0, 1], [1, 2]]},
                    r_partition=[[0, 1, 2]],
                    mu=[{"k": 0, "values": {"0": 2, "1": 2}}])
    with pytest.raises(BuildSpecError, match="biconnected"):
        validate_spec(doc)


def test_bad_generators_rejected():
    doc = chord_doc(h=[[1, 0, 2, 3, 4]])  # swaps 0,1 only: not an automorphism
    with pytest.raises(BuildSpecError, match="automorphism|generator"):
        validate_spec(doc)
    doc = chord_doc(h=[[0, 1, 2, 3]])  # wrong degree
    with pytest.raises(BuildSpecError):
        validate_spec(doc)


def test_refinement_violation_rejected():
    doc = {
        "lambda0": {"n": 4, "edges": K4_EDGES},
        "h": "aut",  # single orbit cannot refine the singleton partition
        "r_partition": [[0], [1], [2], [3]],
        "mu": [{"k": 0, "values": {"0": 1}}],
        "depth": 1,
    }
    with pytest.raises(BuildSpecError, match="not contained"):
        validate_spec(doc)


def test_bad_mu_values_rejected():
    with pytest.raises(BuildSpecError, match="finite integer"):
        validate_spec(chord_doc(mu=[{"k": 0, "values": {"0": "aleph0", "2": 1}},
                                    {"k": 1, "values": {"1": 2}}]))
    with pytest.raises(BuildSpecError, match="finite integer"):
        validate_spec(chord_doc(mu=[{"k": 0, "values": {"0": 3.5, "2": 1}},
                                    {"k": 1, "values": {"1": 2}}]))
    with pytest.raises(BuildSpecError, match="negative"):
        validate_spec(chord_doc(mu=[{"k": 0, "values": {"0": -3, "2": 1}},
                                    {"k": 1, "values": {"1": 2}}]))
    with pytest.raises(BuildSpecError, match="out of range"):
        validate_spec(chord_doc(mu=[{"k": 0, "values": {"0": 3, "7": 1}},
                                    {"k": 1, "values": {"1": 2}}]))
    with pytest.raises(BuildSpecError, match="duplicate"):
        validate_spec(chord_doc(mu=[{"k": 0, "values": {"0": 3, "2": 1}},
                                    {"k": 0, "values": {"0": 3, "2": 1}},
                                    {"k": 1, "values": {"1": 2}}]))


@pytest.mark.parametrize("overrides, message", [
    ({"lambda0": {"n": 5, "edges": [[0, True], [1, 2], [2, 3], [3, 4],
                                    [0, 4], [0, 2]]}}, "vertex id True"),
    ({"lambda0": {"n": 5, "edges": [[0, 1.0], [1, 2], [2, 3], [3, 4],
                                    [0, 4], [0, 2]]}}, "vertex id 1.0"),
    ({"lambda0": {"n": 5.9, "edges": [[0, 1], [1, 2], [2, 3], [3, 4],
                                      [0, 4], [0, 2]]}}, "n 5.9"),
    ({"lambda0": {"n": True, "edges": []}}, "n True"),
    ({"r_partition": [[0, 2, 3, 4], [1.7]]}, "vertex 1.7"),
    ({"r_partition": [[0, 2, 3, 4], ["1"]]}, "vertex '1'"),
    ({"r_partition": [[0, 2, 3, 4], [True]]}, "vertex True"),
    ({"mu": [{"k": 0.0, "values": {"0": 3, "2": 1}},
             {"k": 1, "values": {"1": 2}}]}, "index 0.0"),
    ({"h": [[True, 0, 2, 4, 3]]}, "image True"),
], ids=["edge_id_bool", "edge_id_float", "n_float", "n_bool",
        "partition_float", "partition_str", "partition_bool", "k_float",
        "h_bool"])
def test_ids_must_be_json_integers(overrides, message):
    with pytest.raises(BuildSpecError, match=f"{message} is not an integer"):
        validate_spec(chord_doc(**overrides))


def test_bad_partition_and_depth_rejected():
    with pytest.raises(BuildSpecError, match="cover"):
        validate_spec(chord_doc(r_partition=[[0, 2, 3], [1]]))
    with pytest.raises(BuildSpecError, match="twice"):
        validate_spec(chord_doc(r_partition=[[0, 2, 3, 4], [1, 4]]))
    with pytest.raises(BuildSpecError, match="depth"):
        validate_spec(chord_doc(depth=-1))
    with pytest.raises(BuildSpecError, match="depth"):
        validate_spec(chord_doc(depth="three"))
    with pytest.raises(BuildSpecError, match="missing"):
        validate_spec({"lambda0": {"n": 2, "edges": [[0, 1]]}})


def test_spec_json_round_trip():
    spec = load_spec("chord5cyc.json")
    again = validate_spec(spec_to_json_dict(spec))
    assert again == spec


def test_depth_zero_build_is_the_seed():
    spec = with_depth(load_spec("clothesline_i.json"), 0)
    result = build_truncation(spec)
    assert result.graph == spec.lambda0
    assert len(result.lobes) == 1
    assert result.lobes[0].sigma == (0, 1, 2, 3)
    assert verify_interior(result, spec).ok


def test_chord5cyc_growth_counts():
    spec = load_spec("chord5cyc.json")
    r1 = build_truncation(spec)
    # each chord-end vertex spawns 3 lobes, the off-chord pair 3, the apex 1
    assert len(r1.lobes) == 1 + 13
    assert r1.graph.vertex_count == 5 + 13 * 4
    assert verify_interior(r1, spec).ok


def test_monotone_growth():
    spec = load_spec("clothesline_i.json")
    results = {d: build_truncation(with_depth(spec, d)) for d in range(4)}
    for d in range(3):
        small, big = results[d].graph, results[d + 1].graph
        assert small.vertex_count <= big.vertex_count
        assert set(small.edges) <= set(big.edges)
        # the prefix is induced: no later edge joins two early vertices
        extra = [e for e in big.edges if e not in set(small.edges)]
        assert all(max(e) >= small.vertex_count for e in extra)
        # registry prefix agrees
        assert results[d].lobes == results[d + 1].lobes[:len(results[d].lobes)]


def test_build_determinism():
    spec = load_spec("petersen_unbalanced.json")
    a = build_truncation(spec)
    b = build_truncation(spec)
    assert serialize_graph(a.graph) == serialize_graph(b.graph)
    assert a.to_json_dict() == b.to_json_dict()


def test_lobes_all_match_the_seed():
    spec = load_spec("kst_two_images.json")
    result = build_truncation(with_depth(spec, 2))
    want = canonical_certificate(spec.lambda0)
    for rec in result.lobes:
        pos = {v: i for i, v in enumerate(sorted(rec.sigma))}
        edges = [(pos[rec.sigma[u]], pos[rec.sigma[v]])
                 for u, v in spec.lambda0.edges]
        sub = make_graph(spec.lambda0.vertex_count, edges)
        assert canonical_certificate(sub) == want


def test_interior_recount_catches_tampering():
    spec = load_spec("degenerate_k4.json")
    result = build_truncation(spec)
    assert verify_interior(result, spec).ok
    tampered = dataclasses.replace(result, lobes=result.lobes[:-1])
    report = verify_interior(tampered, spec)
    assert not report.ok and report.violations


def test_interior_violations_equal_a_per_vertex_recount():
    rng = random.Random("interior")
    for path in sorted(FIXTURES.glob("*.json")):
        spec = with_depth(validate_spec(json.loads(path.read_text())), 2)
        result = build_truncation(spec)
        lobes = list(result.lobes)
        variants = [result.lobes, lobes[:-1], lobes + lobes[-1:],
                    lobes[:1] + lobes[2:]]
        for _ in range(5):
            i = rng.randrange(len(lobes))
            sigma = list(lobes[i].sigma)
            sigma[rng.randrange(len(sigma))] = rng.randrange(
                result.graph.vertex_count)
            variants.append(lobes[:i] + [lobes[i]._replace(
                sigma=tuple(sigma))] + lobes[i + 1:])
        for variant in variants:
            tampered = dataclasses.replace(result, lobes=tuple(variant))
            report = verify_interior(tampered, spec)
            assert list(report.violations) == recount_interior(tampered, spec)
            assert report.ok == (not report.violations)


def test_interior_rejects_mismatched_pair():
    spec = load_spec("degenerate_k4.json")
    other = build_truncation(load_spec("chord5cyc.json"))
    with pytest.raises(BuildSpecError):
        verify_interior(other, spec)


def test_resource_cap():
    spec = load_spec("chord5cyc.json")
    with pytest.raises(ResourceCapError):
        build_truncation(with_depth(spec, 4), max_vertices=500)


def test_tree_seed_builds_regular_tree():
    doc = {
        "lambda0": {"n": 2, "edges": [[0, 1]]},
        "h": "aut",
        "r_partition": [[0, 1]],
        "mu": [{"k": 0, "values": {"0": 3}}],
        "depth": 2,
    }
    spec = validate_spec(doc)
    result = build_truncation(spec)
    g = result.graph
    assert g.edge_count == g.vertex_count - 1
    assert {g.degree(v) for v in range(g.vertex_count)
            if result.vertex_depth[v] < 2} == {3}
    lim = classify_limit(spec)
    assert lim.vertex_transitive and lim.edge_transitive and lim.arc_transitive
    assert lim.edge_case == "3a"


def test_limit_reports():
    lim = classify_limit(load_spec("clothesline_i.json"))
    assert lim.lobe_transitive
    assert not lim.vertex_transitive and not lim.edge_transitive
    assert not lim.arc_transitive

    lim = classify_limit(load_spec("kst_one_each.json"))
    assert lim.vertex_transitive and lim.edge_transitive
    assert lim.edge_case == "3b" and lim.m_constants == (1, 1)
    assert not lim.arc_transitive

    lim = classify_limit(load_spec("kst_two_images.json"))
    assert not lim.vertex_transitive and lim.edge_transitive
    assert lim.edge_case == "3c" and lim.m_constants == (2, 2)

    lim = classify_limit(load_spec("kst_equal_3a.json"))
    assert lim.vertex_transitive and lim.edge_transitive
    assert lim.edge_case == "3a"
    assert lim.arc_transitive

    lim = classify_limit(load_spec("degenerate_k4.json"))
    assert lim.lobe_transitive and not lim.vertex_transitive
    assert not lim.edge_transitive and not lim.arc_transitive

    lim = classify_limit(load_spec("petersen_balanced.json"))
    assert lim.vertex_transitive and lim.edge_transitive and lim.arc_transitive


K24_EDGES = [[0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [1, 5]]


@pytest.mark.parametrize("doc", [
    # Λ = K_{2,3}: cell [0, 1, 2, 3] sits on both sides of its lobes, and no
    # automorphism of Λ swaps the sides of 2 and 3 vertices
    {"lambda0": {"n": 5, "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3],
                                   [1, 4]]},
     "h": [[0, 1, 3, 2, 4], [1, 0, 3, 2, 4]],
     "r_partition": [[4], [0, 1, 2, 3]],
     "mu": [{"k": 0, "values": {"2": 3}}, {"k": 1, "values": {"0": 2, "1": 1}}],
     "depth": 3},
    {"lambda0": {"n": 6, "edges": K24_EDGES}, "h": [[1, 0, 2, 4, 3, 5]],
     "r_partition": [[2, 5], [0, 1, 3, 4]],
     "mu": [{"k": 0, "values": {"3": 1, "1": 2}},
            {"k": 1, "values": {"2": 1, "0": 2}}],
     "depth": 2},
    {"lambda0": {"n": 6, "edges": K24_EDGES}, "h": [[1, 0, 3, 2, 4, 5]],
     "r_partition": [[0, 1, 5], [2, 3, 4]],
     "mu": [{"k": 0, "values": {"0": 1, "3": 1}},
            {"k": 1, "values": {"1": 1, "2": 1}}],
     "depth": 2},
    {"lambda0": {"n": 6, "edges": K24_EDGES}, "h": [],
     "r_partition": [[2, 3], [0, 5], [1, 4]],
     "mu": [{"k": 0, "values": {"2": 3, "3": 2}},
            {"k": 1, "values": {"5": 3, "0": 2}},
            {"k": 2, "values": {"1": 3, "4": 2}}],
     "depth": 2},
], ids=["k23_mixed_cell", "k24_mixed_1", "k24_mixed_2", "k24_mixed_3"])
def test_limit_with_lobes_in_both_orientations_needs_a_side_swap(doc):
    lim = classify_limit(validate_spec(doc))
    assert not lim.edge_transitive
    assert lim.edge_case is None and lim.m_constants is None


def test_limit_verdicts_meet_degree_conditions_on_random_truncations():
    # Interior vertices of a truncation have their limit degree, so a
    # vertex- or arc-transitive limit gives one degree over them and an
    # edge-transitive one a single degree pair over the interior edges.
    # Seed 3 draws two K_{2,4} specs like those above: a cell on both sides
    # of its lobes, and no automorphism of Λ swapping its sides.
    rng = random.Random(3)
    checked = []
    for _ in range(300):
        doc = random_spec_doc(rng)
        try:
            spec = validate_spec(doc)
        except BuildSpecError:
            continue
        lim = classify_limit(spec)
        result = build_truncation(spec)
        g = result.graph
        deg = g.degrees()
        inner = [d < 2 for d in result.vertex_depth]
        if lim.vertex_transitive or lim.arc_transitive:
            assert len({deg[v] for v in range(g.vertex_count)
                        if inner[v]}) == 1, doc
        if lim.edge_transitive:
            assert len({tuple(sorted((deg[u], deg[v]))) for u, v in g.edges
                        if inner[u] and inner[v]}) == 1, doc
        checked.append(lim.edge_case)
    assert len(checked) > 250
    assert {"3a", "3b", "3c"} <= set(checked)


def test_spec_equivalence():
    spec = load_spec("chord5cyc.json")
    assert spec_equivalent(spec, spec, 2)
    assert not spec_equivalent(spec, load_spec("clothesline_i.json"), 1)


def _random_anchor_build(spec, rng):
    """Builder variant gluing each copy at a random orbit-cell member.

    Used to confirm the library's minimal-id anchor choice is without loss:
    any member of an orbit cell yields an isomorphic truncation.
    """
    lam = spec.lambda0
    n0 = lam.vertex_count
    q_of_local = [0] * n0
    for j, cell in enumerate(spec.q_cells):
        for v in cell:
            q_of_local[v] = j
    edges = list(lam.edges)
    vertex_count = n0
    frontier = [(v, q_of_local[v]) for v in range(n0)]
    for _ in range(spec.depth):
        new_frontier = []
        for w, j0 in frontier:
            k = spec.r_of_q[j0]
            for j in range(len(spec.q_cells)):
                if spec.r_of_q[j] != k:
                    continue
                for _ in range(spec.mu[k][j] - (1 if j == j0 else 0)):
                    anchor = rng.choice(spec.q_cells[j])
                    name = {}
                    for local in range(n0):
                        if local == anchor:
                            name[local] = w
                        else:
                            name[local] = vertex_count
                            new_frontier.append((vertex_count, q_of_local[local]))
                            vertex_count += 1
                    edges.extend((min(name[a], name[b]), max(name[a], name[b]))
                                 for a, b in lam.edges)
        frontier = new_frontier
    return make_graph(vertex_count, edges)


def test_anchor_choice_is_without_loss():
    import random

    rng = random.Random(8)
    for name in ("chord5cyc.json", "clothesline_ii.json", "kst_one_each.json"):
        spec = with_depth(load_spec(name), 2)
        reference = canonical_certificate(build_truncation(spec).graph)
        for _ in range(3):
            variant = _random_anchor_build(spec, rng)
            assert canonical_certificate(variant) == reference, name


def test_truncations_classify_consistently():
    # finite checkers and the orbit oracle must agree on builder outputs;
    # the degenerate single-cut-vertex family is the one lobe-transitive case
    from lobes.decomposition import decompose, lobe_classes
    from lobes.transitivity import (classify_direct, is_arc_transitive_thm,
                                    is_edge_transitive_thm,
                                    is_lobe_transitive_thm,
                                    is_vertex_transitive_thm, tau_table)

    for name in ("chord5cyc.json", "clothesline_i.json", "degenerate_k4.json",
                 "kst_one_each.json", "petersen_unbalanced.json"):
        g = build_truncation(with_depth(load_spec(name), 1)).graph
        d = decompose(g)
        classes = lobe_classes(g, d)
        gens = automorphism_generators(g)
        tau = tau_table(g, d, classes)
        oracle = classify_direct(g)
        assert is_vertex_transitive_thm(g, d, tau) == \
            (oracle.vertex_orbits == 1), name
        assert is_lobe_transitive_thm(g, d, classes, gens).holds == \
            (oracle.lobe_orbits == 1), name
        assert is_edge_transitive_thm(g, d, classes).holds == \
            (oracle.edge_orbits == 1), name
        assert is_arc_transitive_thm(g, d, classes).holds == \
            (oracle.arc_orbits == 1), name
        if name == "degenerate_k4.json":
            assert is_lobe_transitive_thm(g, d, classes, gens).holds


def test_limit_reports_respect_the_implication_chain():
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert fixtures
    for path in fixtures:
        lim = classify_limit(load_spec(path.name))
        assert lim.lobe_transitive
        assert not lim.arc_transitive or lim.edge_transitive, path.name
        assert not lim.edge_transitive or lim.lobe_transitive, path.name


def test_local_transitivity_of_builder_output():
    spec = load_spec("clothesline_i.json")
    result = build_truncation(with_depth(spec, 4))
    assert verify_local_transitivity(result, 2).ok
    with pytest.raises(ValueError):
        verify_local_transitivity(result, 4)


def test_local_transitivity_agrees_with_flat_ball_certificates():
    # independent route: certify each root's ball subgraph directly
    from lobes.decomposition import decompose, lobe_ball

    spec = with_depth(load_spec("petersen_unbalanced.json"), 3)
    result = build_truncation(spec)
    assert verify_local_transitivity(result, 1).ok
    g = result.graph
    d = decompose(g)
    by_vertices = {tuple(sorted(set(rec.sigma))): rec for rec in result.lobes}
    certs = set()
    for lobe_id, lobe in enumerate(d.lobes):
        if by_vertices[lobe.vertices].depth > result.depth - 1:
            continue
        ball = lobe_ball(g, d, lobe_id, 1)
        root = set(lobe.vertices)
        colors = [1 if ball.originals[x] in root else 0
                  for x in range(ball.graph.vertex_count)]
        certs.add(canonical_certificate(ball.graph, colors))
    assert len(certs) == 1


def test_local_transitivity_catches_nonuniform_attachment():
    # hand-built chain of three triangles: end lobes see shorter balls
    tri = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    g = make_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                       (4, 5), (4, 6), (5, 6)])
    result = BuildResult(
        graph=g, lambda0=tri,
        lobes=(LobeRecord(0, 0, (0, 1, 2)), LobeRecord(1, 1, (2, 3, 4)),
               LobeRecord(2, 2, (4, 5, 6))),
        vertex_depth=(0, 0, 0, 1, 1, 2, 2), depth=2)
    report = verify_local_transitivity(result, 1)
    assert not report.ok
    assert report.witness == (0, 1)


# witnesses at radius 2 and 1 once a depth-3 truncation loses its last lobe
# record, as the code gave before certificates were shared between visits
TRUNCATED_WITNESSES = {
    "chord5cyc.json": ((0, 13), (0, 145)),
    "clothesline_i.json": ((0, 2), (0, 4)),
    "clothesline_ii.json": ((0, 2), (0, 4)),
    "clothesline_iii.json": ((0, 2), (0, 4)),
    "clothesline_iv.json": ((0, 2), (0, 4)),
    "degenerate_k4.json": (None, None),
    "k4_uniform.json": ((0, 4), (0, 16)),
    "kst_equal_3a.json": ((0, 6), (0, 36)),
    "kst_one_each.json": ((0, 5), (0, 25)),
    "kst_two_images.json": ((0, 5), (0, 25)),
    "petersen_balanced.json": ((0, 10), (0, 100)),
    "petersen_unbalanced.json": ((0, 5), (0, 25)),
}


def test_local_transitivity_certifies_each_coloring_once(monkeypatch):
    import lobes.decomposition as decomposition

    calls = []

    def counted(g, colors=None):
        calls.append(colors)
        return canonical_certificate(g, colors)

    monkeypatch.setattr(decomposition, "_engine_certificate", counted)
    chain = BuildResult(
        graph=make_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                             (4, 5), (4, 6), (5, 6)]),
        lambda0=make_graph(3, [(0, 1), (0, 2), (1, 2)]),
        lobes=(LobeRecord(0, 0, (0, 1, 2)), LobeRecord(1, 1, (2, 3, 4)),
               LobeRecord(2, 2, (4, 5, 6))),
        vertex_depth=(0, 0, 0, 1, 1, 2, 2), depth=2)
    cases = [(chain, 1, (0, 1))]
    assert sorted(p.name for p in FIXTURES.glob("*.json")) == \
        sorted(TRUNCATED_WITNESSES)
    for name, (w2, w1) in TRUNCATED_WITNESSES.items():
        result = build_truncation(with_depth(load_spec(name), 3))
        cut = dataclasses.replace(result, lobes=result.lobes[:-1])
        cases += [(result, 2, None), (result, 1, None), (cut, 2, w2),
                  (cut, 1, w1)]
    for result, radius, witness in cases:
        calls.clear()
        report = verify_local_transitivity(result, radius)
        assert (report.ok, report.witness) == (witness is None, witness)
        assert calls and len(calls) == len(set(calls))


def test_spec_equivalent_shortcut_agrees_with_certificates(monkeypatch):
    import lobes.builder as builder

    certified = []
    certs = {}

    def cert(g, colors=None):
        # the certificate is a pure function of the graph: compute it once
        if g not in certs:
            certs[g] = canonical_certificate(g)
        return certs[g]

    def counted(g, colors=None):
        certified.append(g)
        return cert(g)

    monkeypatch.setattr(builder, "canonical_certificate", counted)
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    shortcuts = 0
    for depth in (1, 2):
        graphs = {n: build_truncation(with_depth(load_spec(n), depth)).graph
                  for n in names}
        for a in names:
            for b in names:
                certified.clear()
                same = spec_equivalent(load_spec(a), load_spec(b), depth)
                assert same == (cert(graphs[a]) == cert(graphs[b])), (a, b)
                assert (not certified) == (graphs[a] == graphs[b]), (a, b)
                shortcuts += a != b and not certified
    assert shortcuts >= 24  # the twelve clothesline pairs at both depths
