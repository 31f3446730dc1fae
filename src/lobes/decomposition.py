"""Lobe decomposition: biconnected pieces, cut vertices, block-cut tree.

A lobe is a cut edge together with its endpoints, or a maximal biconnected
subgraph.  Lobe ids are assigned by sorting the discovered pieces by their
minimal contained edge, so the decomposition is fully deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, induced_subgraph, is_connected, make_graph
from .symmetry import (GeneratorSet, _engine_certificate, _run_engine,
                       inverse_perm, orbit_partition)


class DecompositionError(ValueError):
    """Input rejected by a decomposition operation."""


@dataclass(frozen=True)
class Lobe:
    """One lobe: its sorted vertex tuple and sorted edge tuple."""
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def subgraph(self) -> tuple[Graph, tuple[int, ...]]:
        """The lobe on local ids, as ``(sub, originals)``.

        Equal to ``induced_subgraph(g, self.vertices)`` without scanning the
        host's edges: a lobe is an induced subgraph, because a host edge
        joining two of its vertices would keep it biconnected (or, for a cut
        edge, is that edge), so maximality puts the edge in the lobe.
        """
        return make_graph(len(self.vertices), self.local_edges()), self.vertices

    def local_edges(self) -> tuple[tuple[int, int], ...]:
        """``edges`` on local ids; the relabeling is monotone, so sorted."""
        local = {v: x for x, v in enumerate(self.vertices)}
        return tuple((local[u], local[v]) for u, v in self.edges)


@dataclass(frozen=True)
class LobeDecomposition:
    """Lobes, cut vertices and the block-cut tree of a connected graph.

    ``tree_edges`` pairs a lobe id with a cut vertex contained in it;
    ``lobes_at[v]`` lists the ids of the lobes containing vertex v.
    """
    lobes: tuple[Lobe, ...]
    cut_vertices: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]
    lobes_at: tuple[tuple[int, ...], ...]

    @property
    def lobe_count(self) -> int:
        return len(self.lobes)

    def lobe_neighbors(self, lobe_id: int) -> list[int]:
        """Lobes sharing a vertex with the given lobe."""
        out = set()
        for v in self.lobes[lobe_id].vertices:
            out.update(self.lobes_at[v])
        out.discard(lobe_id)
        return sorted(out)

    def to_json_dict(self, classes: "LobeClasses | None" = None) -> dict:
        doc = {
            "lobe_count": self.lobe_count,
            "lobes": [list(lobe.vertices) for lobe in self.lobes],
            "cut_vertices": list(self.cut_vertices),
            "tree_edges": [list(e) for e in self.tree_edges],
        }
        if classes is not None:
            doc["class_of"] = list(classes.class_of)
            doc["class_reps"] = list(classes.class_reps)
        return doc


def connectivity_class(g: Graph) -> str:
    """One of "disconnected", "single_K2", "biconnected", "connectivity_one".

    Aimed at graphs with at least one edge; the trivial graphs (0 or 1
    vertices) are binned under "disconnected".
    """
    n = g.vertex_count
    if n <= 1 or not is_connected(g):
        return "disconnected"
    if n == 2:
        return "single_K2"
    one_piece = len(_biconnected_edge_groups(g)) == 1
    return "biconnected" if one_piece else "connectivity_one"


def decompose(g: Graph) -> LobeDecomposition:
    """Compute the lobe decomposition of a connected graph with >= 1 edge."""
    if g.edge_count == 0:
        raise DecompositionError("cannot decompose an edgeless graph")
    if not is_connected(g):
        raise DecompositionError("cannot decompose a disconnected graph")
    return _decomposition(g.vertex_count, _biconnected_edge_groups(g))


def _decomposition(n: int, groups: list[list[tuple[int, int]]]
                   ) -> LobeDecomposition:
    """The decomposition of a connected graph on n vertices from its
    ``_biconnected_edge_groups``, which are sorted in place."""
    groups.sort(key=lambda edges: edges[0])
    lobes = []
    for edges in groups:
        vertices = sorted({v for e in edges for v in e})
        lobes.append(Lobe(tuple(vertices), tuple(edges)))
    lobes_at: list[list[int]] = [[] for _ in range(n)]
    for i, lobe in enumerate(lobes):
        for v in lobe.vertices:
            lobes_at[v].append(i)
    cut_vertices = tuple(v for v in range(n) if len(lobes_at[v]) >= 2)
    tree_edges = tuple(sorted(
        (i, v) for v in cut_vertices for i in lobes_at[v]))
    return LobeDecomposition(tuple(lobes), cut_vertices, tree_edges,
                             tuple(tuple(l) for l in lobes_at))


def _biconnected_edge_groups(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected pieces, each sorted, via iterative DFS."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    groups: list[list[tuple[int, int]]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(g.adjacency[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            advanced = False
            for w in nbrs:
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adjacency[w])))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                group = []
                while True:
                    e = edge_stack.pop()
                    group.append(e if e[0] < e[1] else (e[1], e[0]))
                    if e == (u, v):
                        break
                groups.append(sorted(group))
    return groups


def _lobe_tree_codes(shapes, lobes, lobes_at, roots, colors=None):
    """Codes of rooted lobe trees, sorted subtree codes (Aho, Hopcroft &
    Ullman 1974) over the block-cut tree (Colbourn & Booth 1981).

    Lobe i is ``shapes[k]``, local id x being host vertex ``hosts[x]``, for
    ``(k, hosts) = lobes[i]``.  Node ``(i, entry, budget)`` is lobe i
    entered at ``entry`` (None at a root) with the lobes at its other
    vertices hanging ``budget`` levels deep (None: all); the roots are
    distinct and share one budget.  The engine certifies a node's lobe once
    per distinct colouring of its vertices by (is it the entry, the
    caller's colour, the sorted codes hanging there).  Codes number new
    certificates level by level, bottom up, each level's in byte order.
    Returns each node's code and the certificates in code order.  Codes are
    equal exactly for isomorphic rooted trees; isomorphic inputs get the
    same codes and certificates in any call.
    """
    kids: dict[tuple, list] = {}
    levels = [roots]  # level j + 1: the children of level j
    while levels[-1]:
        below: dict[tuple, None] = {}
        for node in levels[-1]:
            lobe, entry, budget = node
            step = None if budget is None else budget - 1
            kids[node] = pairs = [] if budget == 0 else [
                (x, (m, v, step)) for x, v in enumerate(lobes[lobe][1])
                if v != entry for m in lobes_at[v] if m != lobe]
            for _, c in pairs:
                below[c] = None
        levels.append(list(below))
    certs: dict[tuple, bytes] = {}
    ids: dict[bytes, int] = {}
    code: dict[tuple, int] = {}
    for level in reversed(levels):
        certified = []
        for node in level:
            k, hosts = lobes[node[0]]
            hang: dict[int, list[int]] = {}
            for x, c in kids[node]:
                hang.setdefault(x, []).append(code[c])
            key = (k, tuple((v == node[1], colors and colors[v],
                             tuple(sorted(hang[x])) if x in hang else ())
                            for x, v in enumerate(hosts)))
            cert = certs.get(key)
            if cert is None:
                cert = certs[key] = _engine_certificate(shapes[k], key[1])
            certified.append(cert)
        for cert in sorted({c for c in certified if c not in ids}):
            ids[cert] = len(ids)
        for node, cert in zip(level, certified):
            code[node] = ids[cert]
    return code, list(ids)


def _lobe_tree_certificate(g: Graph, colors=None) -> bytes | None:
    """``canonical_certificate`` of a connectivity-1 graph, None otherwise.

    The tree is rooted at its centre, found by peeling leaves.  Leaves are
    lobes (a cut vertex lies in two or more), so the centre is one node: a
    lobe, or a cut vertex whose lobes are the roots.
    """
    if g.vertex_count < 3 or not is_connected(g):
        return None
    groups = _biconnected_edge_groups(g)
    if len(groups) < 2:
        return None
    d = _decomposition(g.vertex_count, groups)
    # tree nodes: lobe i as i, cut vertex v as ~v
    adj = {i: [~v for v in lobe.vertices if len(d.lobes_at[v]) > 1]
           for i, lobe in enumerate(d.lobes)}
    adj.update((~v, list(d.lobes_at[v])) for v in d.cut_vertices)
    degree = {x: len(nbrs) for x, nbrs in adj.items()}
    layer = [x for x, k in degree.items() if k == 1]
    while len(layer) > 1:  # a tree of two or more nodes has two leaves
        peeled = []
        for x in layer:
            for y in adj[x]:
                degree[y] -= 1
                if degree[y] == 1:
                    peeled.append(y)
        layer = peeled
    centre = layer[0]
    shape_of: dict[tuple, int] = {}
    lobes = [(shape_of.setdefault(lobe.local_edges(), len(shape_of)),
              lobe.vertices) for lobe in d.lobes]
    shapes = [make_graph(max(max(e) for e in edges) + 1, edges)
              for edges in shape_of]
    roots = [(centre, None, None)] if centre >= 0 else \
        [(i, ~centre, None) for i in d.lobes_at[~centre]]
    code, table = _lobe_tree_codes(shapes, lobes, d.lobes_at, roots, colors)
    return b"lobe tree;" + b"".join(b"%d:%s" % (len(c), c) for c in table) \
        + repr(sorted(code[r] for r in roots)).encode()


@dataclass(frozen=True)
class LobeClasses:
    """Isomorphism classes of lobes with class-consistent orbit labels.

    For each class the representative is the lowest lobe id; ``sigma[i]``
    maps the representative's vertices (in their sorted order) onto lobe i.
    ``vertex_label[i][v]`` is the orbit label of vertex v inside lobe i,
    transported from the representative's automorphism orbits, so that every
    isomorphism between class members preserves labels.
    ``rep_generators[k]`` generates Aut of class k's representative, in the
    local ids of its ``Lobe.subgraph()``.
    """
    class_of: tuple[int, ...]
    class_reps: tuple[int, ...]
    sigma: tuple[tuple[int, ...], ...]
    vertex_label: tuple[dict, ...]
    label_counts: tuple[int, ...]
    rep_generators: tuple[GeneratorSet, ...]

    @property
    def class_count(self) -> int:
        return len(self.class_reps)


def lobe_classes(g: Graph, d: LobeDecomposition) -> LobeClasses:
    """Group lobes by isomorphism and install consistent orbit labels, all
    from one engine run per distinct lobe (equal local edge tuples)."""
    runs: dict[tuple, tuple] = {}
    by_key: dict[tuple, int] = {}
    class_of: list[int] = []
    reps: list[int] = []
    rep_labs: list[tuple[int, ...]] = []
    rep_gens: list[GeneratorSet] = []
    rep_cells: list[tuple[tuple[int, ...], ...]] = []
    sigma: list[tuple[int, ...]] = []
    vertex_label: list[dict] = []
    for i, lobe in enumerate(d.lobes):
        # a lobe has no isolated vertex, so its edges fix the vertex count
        edges = lobe.local_edges()
        if edges not in runs:
            runs[edges] = _run_engine(make_graph(len(lobe.vertices), edges))
        key, lab, gens, _, order = runs[edges]
        k = by_key.setdefault(key, len(reps))
        if k == len(reps):
            reps.append(i)
            rep_labs.append(lab)
            rep_gens.append(GeneratorSet(len(lobe.vertices), tuple(gens),
                                         "aut", order))
            # local order is original order, so cells sort by minimal vertex
            rep_cells.append(orbit_partition(rep_gens[k], "vertices").cells)
        class_of.append(k)
        lab_inv = inverse_perm(lab)
        sig = tuple(lobe.vertices[lab_inv[x]] for x in rep_labs[k])
        sigma.append(sig)
        vertex_label.append({sig[x]: j for j, cell in enumerate(rep_cells[k])
                             for x in cell})
    label_counts = tuple(len(cells) for cells in rep_cells)
    return LobeClasses(tuple(class_of), tuple(reps), tuple(sigma),
                       tuple(vertex_label), label_counts, tuple(rep_gens))


@dataclass(frozen=True)
class LobeBall:
    """A lobe-ball: the induced subgraph plus its embedding into the host."""
    graph: Graph
    originals: tuple[int, ...]
    lobe_ids: tuple[int, ...]

    def to_original(self, v: int) -> int:
        return self.originals[v]


def lobe_ball(g: Graph, d: LobeDecomposition, lobe_id: int, n: int) -> LobeBall:
    """The radius-n ball of lobes around ``lobe_id``.

    Radius 0 is the lobe itself; each step adds every lobe sharing a vertex
    with the current ball.  The returned subgraph uses dense local ids with
    ``originals`` giving the embedding.
    """
    if not (0 <= lobe_id < d.lobe_count):
        raise DecompositionError(f"invalid lobe id {lobe_id}")
    if n < 0:
        raise DecompositionError(f"radius must be nonnegative, got {n}")
    lobe_ids = tuple(i for i, dist in enumerate(lobe_distances(d, lobe_id))
                     if 0 <= dist <= n)
    vertices = sorted({v for lid in lobe_ids for v in d.lobes[lid].vertices})
    sub, originals = induced_subgraph(g, vertices)
    return LobeBall(sub, originals, lobe_ids)


def lobe_distances(d: LobeDecomposition, lobe_id: int) -> list[int]:
    """Distances from one lobe to all lobes in the lobe-adjacency graph."""
    dist = [-1] * d.lobe_count
    dist[lobe_id] = 0
    queue = deque([lobe_id])
    while queue:
        lid = queue.popleft()
        for nb in d.lobe_neighbors(lid):
            if dist[nb] == -1:
                dist[nb] = dist[lid] + 1
                queue.append(nb)
    return dist
