"""Lobe decomposition: biconnected pieces, cut vertices, block-cut tree.

A lobe is a cut edge together with its endpoints, or a maximal biconnected
subgraph.  Lobe ids are assigned by sorting the discovered pieces by their
minimal contained edge, so the decomposition is fully deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, _sorted_graph, induced_subgraph
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
        return (_sorted_graph(len(self.vertices), self.local_edges()),
                self.vertices)

    def local_edges(self) -> tuple[tuple[int, int], ...]:
        """``edges`` on local ids; the relabeling is monotone, so sorted."""
        local = dict(zip(self.vertices, range(len(self.vertices)))).__getitem__
        us, vs = zip(*self.edges)
        return tuple(zip(map(local, us), map(local, vs)))


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
    if n <= 1:
        return "disconnected"
    blocks, components = _biconnected_edge_groups(g)
    if components != 1:
        return "disconnected"
    if n == 2:
        return "single_K2"
    return "biconnected" if len(blocks) == 1 else "connectivity_one"


def decompose(g: Graph) -> LobeDecomposition:
    """Compute the lobe decomposition of a connected graph with >= 1 edge."""
    if g.edge_count == 0:
        raise DecompositionError("cannot decompose an edgeless graph")
    blocks, components = _biconnected_edge_groups(g)
    if components != 1:
        raise DecompositionError("cannot decompose a disconnected graph")
    return _decomposition(g.vertex_count, blocks)


def _decomposition(n: int, blocks) -> LobeDecomposition:
    """The decomposition of a connected graph on n vertices from its
    ``_biconnected_edge_groups``, which are sorted in place."""
    blocks.sort(key=lambda block: block[1][0])
    lobes = [Lobe(tuple(sorted(vertices)), tuple(edges))
             for vertices, edges in blocks]
    lobes_at: list[list[int]] = [[] for _ in range(n)]
    for i, lobe in enumerate(lobes):
        for v in lobe.vertices:
            lobes_at[v].append(i)
    cut_vertices = tuple(v for v in range(n) if len(lobes_at[v]) >= 2)
    # lobe by lobe, each lobe's vertices ascending: already sorted
    tree_edges = tuple((i, v) for i, lobe in enumerate(lobes)
                       for v in lobe.vertices if len(lobes_at[v]) >= 2)
    return LobeDecomposition(tuple(lobes), cut_vertices, tree_edges,
                             tuple(map(tuple, lobes_at)))


def _biconnected_edge_groups(g: Graph):
    """The blocks of g as ``(vertices, edges)`` pairs, and g's number of
    connected components.

    One iterative DFS keeps the discovered vertices on a stack (Hopcroft &
    Tarjan 1973).  When it backs up from v to its parent u with
    ``low[v] >= disc[u]``, the vertices from v to the top of the stack,
    with u, form a block.  An edge lies in the block in which its
    later-discovered endpoint leaves the stack, so one pass over the sorted
    ``g.edges`` fills every block's edge list, already sorted.  Vertex lists
    are in no particular order.  ``low`` also takes the tree edge to the
    parent: that can lower ``low[v]`` to ``disc[u]`` but not below, which
    leaves the test and every block as they are in a simple graph.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    disc = [-1] * n
    low = [0] * n
    at = [0] * n  # a vertex's position on the vertex stack
    block_of = [0] * n
    vertex_stack: list[int] = []
    vertex_sets: list[list[int]] = []
    timer = 0
    components = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        components += 1
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(adjacency[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                dw = disc[w]
                if dw == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    at[w] = len(vertex_stack)
                    vertex_stack.append(w)
                    stack.append((w, iter(adjacency[w])))
                    break
                if dw < low[v]:
                    low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] >= disc[u]:
                    members = vertex_stack[at[v]:]
                    del vertex_stack[at[v]:]
                    for x in members:
                        block_of[x] = len(vertex_sets)
                    members.append(u)
                    vertex_sets.append(members)
                elif low[v] < low[u]:
                    low[u] = low[v]
    groups: list[list[tuple[int, int]]] = [[] for _ in vertex_sets]
    for e in g.edges:
        a, b = e
        groups[block_of[b] if disc[b] > disc[a] else block_of[a]].append(e)
    return list(zip(vertex_sets, groups)), components


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
    if g.vertex_count < 3:
        return None
    blocks, components = _biconnected_edge_groups(g)
    if components != 1 or len(blocks) < 2:
        return None
    d = _decomposition(g.vertex_count, blocks)
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
    shapes = [_sorted_graph(max(max(e) for e in edges) + 1, edges)
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
    local ids of its ``Lobe.subgraph()``, found by the jump-back search
    (``symmetry._Engine``), so it is not ``automorphism_generators``' list.
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
    # local edges -> (class, sigma's positions in the lobe's vertex tuple,
    # the labelled vertices' positions in label order, their labels)
    plans: dict[tuple, tuple] = {}
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
        plan = plans.get(edges)
        if plan is None:
            key, lab, gens, _, order = _run_engine(
                _sorted_graph(len(lobe.vertices), edges), jump=True)
            k = by_key.setdefault(key, len(reps))
            if k == len(reps):
                reps.append(i)
                rep_labs.append(lab)
                rep_gens.append(GeneratorSet(len(lobe.vertices), tuple(gens),
                                             "aut", order))
                # local order is original order, so cells sort by minimal
                # vertex
                rep_cells.append(
                    orbit_partition(rep_gens[k], "vertices").cells)
            lab_inv = inverse_perm(lab)
            pos = [lab_inv[x] for x in rep_labs[k]]
            plan = plans[edges] = (
                k, pos, [pos[x] for cell in rep_cells[k] for x in cell],
                [j for j, cell in enumerate(rep_cells[k]) for _ in cell])
        k, pos, labelled, labels = plan
        at = lobe.vertices.__getitem__
        class_of.append(k)
        sigma.append(tuple(map(at, pos)))
        vertex_label.append(dict(zip(map(at, labelled), labels)))
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
