"""Independent brute-force oracles for the test suite.

Nothing here uses the package's refinement/backtracking engine: automorphism
groups come from filtering all n! permutations, isomorphisms from a plain
degree-pruned backtracking search.  These are the ground truth the symmetry
kernels are checked against.
"""

from __future__ import annotations

import itertools

from lobes.graph import Graph, make_graph


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every permutation (n <= 8)."""
    n = g.vertex_count
    if n > 8:
        raise ValueError("brute force automorphisms limited to n <= 8")
    out = []
    for p in itertools.permutations(range(n)):
        if all(g.has_edge(p[u], p[v]) for u, v in g.edges):
            out.append(p)
    return out


def _orbit_count(elements, images) -> int:
    index = {x: i for i, x in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, ys in images.items():
        for y in ys:
            a, b = find(index[x]), find(index[y])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(elements))})


def brute_orbit_counts(g: Graph) -> tuple[int, int, int]:
    """(vertex, edge, arc) orbit counts from the brute-force group."""
    auts = brute_automorphisms(g)
    vertices = list(range(g.vertex_count))
    edges = list(g.edges)
    arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    vo = _orbit_count(vertices, {v: [p[v] for p in auts] for v in vertices})
    eo = _orbit_count(edges, {
        e: [tuple(sorted((p[e[0]], p[e[1]]))) for p in auts] for e in edges})
    ao = _orbit_count(arcs, {a: [(p[a[0]], p[a[1]]) for p in auts] for a in arcs})
    return vo, eo, ao


def brute_is_cut_vertex(g: Graph, v: int) -> bool:
    """Does deleting v disconnect the rest?  Independent reachability check."""
    n = g.vertex_count
    rest = [u for u in range(n) if u != v]
    if len(rest) <= 1:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if y != v and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) != len(rest)


def backtracking_isomorphism(g1: Graph, g2: Graph, colors1=None, colors2=None):
    """Degree-pruned DFS isomorphism search (independent of the engine)."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    if colors1 is None:
        colors1 = [0] * n
    if colors2 is None:
        colors2 = [0] * n
    key1 = [(colors1[v], g1.degree(v)) for v in range(n)]
    key2 = [(colors2[v], g2.degree(v)) for v in range(n)]
    if sorted(key1) != sorted(key2):
        return None
    mapping = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or key1[v] != key2[w]:
                continue
            ok = True
            for u in g1.adjacency[v]:
                if u < v and not g2.has_edge(mapping[u], w):
                    ok = False
                    break
            if ok:
                for u in range(v):
                    if not g1.has_edge(u, v) and g2.has_edge(mapping[u], w):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


def naive_expansion(lambda0: Graph, q_cells, r_of_q, mu) -> Graph:
    """One attachment round, written independently of the builder.

    For every seed vertex, glue enough fresh copies of the seed so that its
    per-cell membership counts match mu, attaching each copy at the smallest
    vertex of the required cell.  Vertices of new copies are tracked as
    (copy_number, seed_vertex) pairs and densified at the end.
    """
    n0 = lambda0.vertex_count
    q_of = {}
    for j, cell in enumerate(q_cells):
        for v in cell:
            q_of[v] = j
    nodes: list = [("seed", v) for v in range(n0)]
    edges = [(("seed", u), ("seed", v)) for u, v in lambda0.edges]
    copy_no = 0
    for v in range(n0):
        k = r_of_q[q_of[v]]
        for j in range(len(q_cells)):
            if r_of_q[j] != k:
                continue
            want = mu[k][j] - (1 if q_of[v] == j else 0)
            for _ in range(want):
                anchor = min(q_cells[j])
                name = {}
                for x in range(n0):
                    if x == anchor:
                        name[x] = ("seed", v)
                    else:
                        name[x] = ("copy", copy_no, x)
                        nodes.append(name[x])
                for a, b in lambda0.edges:
                    edges.append((name[a], name[b]))
                copy_no += 1
    index = {node: i for i, node in enumerate(nodes)}
    return make_graph(len(nodes), [(index[a], index[b]) for a, b in edges])


def brute_blocks(g: Graph) -> set[frozenset]:
    """Edge sets of the blocks: two edges share a block iff one cycle holds
    both, and an edge on no cycle is a block of its own.  Cycles are found
    by trying every cyclic order of every vertex subset."""
    block = {e: frozenset((e,)) for e in g.edges}
    n = g.vertex_count
    for k in range(3, n + 1):
        for cycle in itertools.permutations(range(n), k):
            if cycle[0] != min(cycle) or cycle[1] > cycle[-1]:
                continue  # one order per cycle
            edges = [tuple(sorted((cycle[i], cycle[(i + 1) % k])))
                     for i in range(k)]
            if all(g.has_edge(u, v) for u, v in edges):
                merged = frozenset().union(*(block[e] for e in edges))
                for e in merged:
                    block[e] = merged
    return set(block.values())


def recount_interior(result, spec) -> list[tuple]:
    """``verify_interior``'s violations, from per-vertex membership lists."""
    q_of_local = {v: j for j, cell in enumerate(spec.q_cells) for v in cell}
    memberships: list[list[int]] = [[] for _ in range(result.graph.vertex_count)]
    for rec in result.lobes:
        for local, v in enumerate(rec.sigma):
            memberships[v].append(q_of_local[local])
    violations = []
    for v, mems in enumerate(memberships):
        if result.vertex_depth[v] >= result.depth:
            if len(mems) != 1:
                violations.append((v, "frontier", len(mems)))
            continue
        ks = {spec.r_of_q[j] for j in mems}
        if len(ks) != 1:
            violations.append((v, "mixed_cells", sorted(ks)))
            continue
        k = ks.pop()
        for j in range(len(spec.q_cells)):
            if mems.count(j) != spec.mu[k][j]:
                violations.append((v, "count", j, mems.count(j), spec.mu[k][j]))
    return violations
