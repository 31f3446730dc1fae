"""Exhaustive small-graph and tree enumerators for the acceptance corpus.

Graphs are generated by vertex augmentation and deduplicated with the
package's canonical certificates; counts per order are pinned against the
known censuses in the tests that use these helpers.
"""

from __future__ import annotations

import random

from lobes.catalog import (chorded_5_cycle, complete_bipartite_graph,
                           complete_graph, cycle_graph)
from lobes.graph import Graph, is_connected, make_graph
from lobes.symmetry import (canonical_certificate, generator_set,
                            orbit_partition)


def all_graphs_up_to(n_max: int) -> dict[int, list[Graph]]:
    """All graphs (connected or not) on 1..n_max vertices, up to isomorphism."""
    levels: dict[int, list[Graph]] = {1: [make_graph(1, [])]}
    for n in range(2, n_max + 1):
        seen: dict[bytes, Graph] = {}
        for g in levels[n - 1]:
            base = list(g.edges)
            for mask in range(2 ** (n - 1)):
                extra = [(i, n - 1) for i in range(n - 1) if mask >> i & 1]
                cand = make_graph(n, base + extra)
                cert = canonical_certificate(cand)
                if cert not in seen:
                    seen[cert] = cand
        levels[n] = list(seen.values())
    return levels


def connected_graphs_up_to(n_max: int) -> dict[int, list[Graph]]:
    return {n: [g for g in graphs if is_connected(g)]
            for n, graphs in all_graphs_up_to(n_max).items()}


def all_trees_up_to(n_max: int) -> dict[int, list[Graph]]:
    """All trees on 1..n_max vertices up to isomorphism, by leaf augmentation."""
    levels: dict[int, list[Graph]] = {1: [make_graph(1, [])]}
    for n in range(2, n_max + 1):
        seen: dict[bytes, Graph] = {}
        for t in levels[n - 1]:
            for v in range(n - 1):
                cand = make_graph(n, list(t.edges) + [(v, n - 1)])
                cert = canonical_certificate(cand)
                if cert not in seen:
                    seen[cert] = cand
        levels[n] = list(seen.values())
    return levels


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return make_graph(n, edges)


_BLOCK_POOL = None


def _block_pool() -> list[Graph]:
    global _BLOCK_POOL
    if _BLOCK_POOL is None:
        _BLOCK_POOL = [
            make_graph(2, [(0, 1)]),
            cycle_graph(3),
            cycle_graph(4),
            cycle_graph(5),
            complete_graph(4),
            complete_bipartite_graph(2, 2),
            complete_bipartite_graph(2, 3),
            make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        ]
    return _BLOCK_POOL


def random_connectivity_one_graph(rng: random.Random,
                                  max_vertices: int = 30) -> Graph:
    """Random tree-like gluing of small biconnected blocks (>= 2 of them)."""
    pool = _block_pool()
    edges: list[tuple[int, int]] = []
    first = pool[rng.randrange(len(pool))]
    edges.extend(first.edges)
    n = first.vertex_count
    blocks = 1
    while True:
        block = pool[rng.randrange(len(pool))]
        if n + block.vertex_count - 1 > max_vertices:
            if blocks >= 2:
                break
            block = pool[0]
            if n + 1 > max_vertices:
                break
        glue_old = rng.randrange(n)
        glue_new = rng.randrange(block.vertex_count)
        name = {}
        for v in range(block.vertex_count):
            if v == glue_new:
                name[v] = glue_old
            else:
                name[v] = n
                n += 1
        edges.extend((name[u], name[v]) for u, v in block.edges)
        blocks += 1
        if blocks >= 2 and rng.random() < 0.3:
            break
    return make_graph(n, edges)


_SEED_POOL = None


def _seed_pool() -> list[tuple[Graph, list[tuple[int, ...]]]]:
    """Small biconnected seed lobes, each with its whole automorphism group."""
    global _SEED_POOL
    if _SEED_POOL is None:
        from brute import brute_automorphisms
        graphs = [
            make_graph(2, [(0, 1)]),
            *(cycle_graph(n) for n in range(3, 7)),
            complete_graph(4),
            make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
            complete_bipartite_graph(2, 3),
            complete_bipartite_graph(2, 4),
            complete_bipartite_graph(3, 3),
            chorded_5_cycle(),
            make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)]),
            make_graph(5, list(cycle_graph(4).edges)
                       + [(i, 4) for i in range(4)]),
            make_graph(5, list(cycle_graph(5).edges) + [(1, 4)]),
            make_graph(8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                           if bin(a ^ b).count("1") == 1]),
        ]
        _SEED_POOL = [(g, brute_automorphisms(g)) for g in graphs]
    return _SEED_POOL


def random_spec_doc(rng: random.Random) -> dict:
    """A random depth-2 build-spec document over a small seed lobe.

    The subgroup is ``"aut"`` or generated by 0-2 random automorphisms, the
    vertex partition a random coarsening of the subgroup's orbits, and every
    multiplicity 1-3.  The document may still fail ``validate_spec`` (every
    cell total below 2).
    """
    g, auts = rng.choice(_seed_pool())
    n = g.vertex_count
    h = "aut" if rng.random() < 0.3 else [
        list(rng.choice(auts)) for _ in range(rng.randint(0, 2))]
    gens = generator_set(auts if h == "aut" else h, n, "user", graph=g)
    q_cells = orbit_partition(gens, "vertices").cells
    label = [rng.randrange(len(q_cells)) for _ in q_cells]
    r_labels = sorted(set(label))
    return {
        "lambda0": {"n": n, "edges": [list(e) for e in g.edges]},
        "h": h,
        "r_partition": [[v for j, cell in enumerate(q_cells) if label[j] == x
                         for v in cell] for x in r_labels],
        "mu": [{"k": k, "values": {str(j): rng.randint(1, 3)
                                   for j in range(len(q_cells))
                                   if label[j] == x}}
               for k, x in enumerate(r_labels)],
        "depth": 2,
    }
