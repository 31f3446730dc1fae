"""Graph symmetry kernels: automorphisms, canonical forms, orbits, stabilizers.

One search engine serves three jobs: it refines an ordered partition to an
equitable one, backtracks over individualizations, and reports both a
canonical labeling (minimum relabeled edge list over all leaves) and a
generating set for the automorphism group (from leaf collisions).  Subtrees
equivalent under already-discovered automorphisms are pruned, which changes
neither the canonical form nor the group generated.  Cells are named by
their first position and shared by a node's children until split, and each
node inherits the known generators that fix its prefix pointwise: both only
save work, so the nodes visited and the output stay the same.  The group
order is read off the first path of the search tree (McKay, "Practical
graph isomorphism", 1981), so an engine run also yields |Aut|.  An
isomorphism test searches the second graph only until a leaf reaches the
first graph's canonical form, which is the leaf its full search would keep.
Every search whose generator list nobody reads jumps back from a leaf
equal to the first one to the first path (McKay 1981): both of an
isomorphism test's, the engine certificate's, and those that give Aut(g)
only as a group (``_aut_group`` and ``lobe_classes``, read for orbits and
the order).  Jump-back keeps keys, labelings and the order byte for byte,
and the fewer generators it finds still generate Aut(g), so every orbit is
the full search's.  Only ``automorphism_generators``, whose list ``aut``
prints and ``lobe_stabilizer`` turns into Schreier generators, runs in full.

Everything here is a pure function of its inputs; all orders (cell order,
branch order, orbit cell order) are fixed so output is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import getitem, itemgetter, neg

from .graph import Graph

Perm = tuple[int, ...]

GROUP_ORDER_DEGREE_BOUND = 4096


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def inverse_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def is_permutation(images, n: int) -> bool:
    return len(images) == n and sorted(images) == list(range(n))


def is_automorphism(g: Graph, p) -> bool:
    if not is_permutation(p, g.vertex_count):
        return False
    return all(g.has_edge(p[u], p[v]) for u, v in g.edges)


@dataclass(frozen=True)
class GeneratorSet:
    """Permutation generators of a group acting on 0..degree-1.

    ``kind`` records what the set is meant to generate: the full automorphism
    group of a graph ("aut"), a lobe stabilizer ("stabilizer"), or a
    user-supplied subgroup ("user").  ``order`` is the group order when the
    search that found the generators recorded it, else None; it takes no
    part in equality.
    """
    degree: int
    generators: tuple[Perm, ...]
    kind: str = "user"
    order: int | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(self.generators)


def generator_set(perms, degree: int, kind: str = "user",
                  graph: Graph | None = None) -> GeneratorSet:
    """Validate and freeze a list of permutations into a GeneratorSet."""
    frozen = []
    for p in perms:
        p = tuple(p)
        if not is_permutation(p, degree):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
        if graph is not None and not is_automorphism(graph, p):
            raise ValueError(f"permutation is not an automorphism: {p}")
        frozen.append(p)
    return GeneratorSet(degree, tuple(frozen), kind)


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a permutation group acting on a finite domain.

    ``cells`` are sorted by minimal element and each cell is sorted; the
    domain kind is one of "vertices", "edges", "arcs", "lobes".
    """
    domain: str
    elements: tuple
    cells: tuple[tuple, ...]

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def cell_index(self) -> dict:
        out = {}
        for i, cell in enumerate(self.cells):
            for x in cell:
                out[x] = i
        return out


# ---------------------------------------------------------------------------
# Refinement + backtracking engine
# ---------------------------------------------------------------------------

class _Partition:
    """Ordered partition whose cells are named by their first position.

    ``cell_of[v]`` is the start s of v's cell, the cell at positions s,
    s + 1, ..., so sorted starts are partition order (McKay & Piperno,
    "Practical graph isomorphism, II").  ``members[s]`` is that sorted
    cell, kept for non-singleton cells only.  No cell list is changed in
    place, so clones share them.
    """

    __slots__ = ("members", "cell_of")

    def __init__(self, cells: list[list[int]], n: int):
        self.members = {}
        self.cell_of = [0] * n
        self.split(0, cells)

    def clone(self) -> "_Partition":
        out = _Partition.__new__(_Partition)
        out.members = dict(self.members)
        out.cell_of = list(self.cell_of)
        return out

    def split(self, start: int, fragments: list[list[int]]) -> None:
        """Replace the cell at ``start`` by ordered sorted fragments."""
        if len(fragments[0]) > 1:
            self.members[start] = fragments[0]
        else:
            self.members.pop(start, None)
        for prev, frag in zip(fragments, fragments[1:]):
            start += len(prev)
            if len(frag) > 1:
                self.members[start] = frag
            for v in frag:
                self.cell_of[v] = start


class _Stop(Exception):
    """Ends a search at the leaf that reached its ``stop_key``."""


class _Jump(Exception):
    """Abandons a subtree at a leaf equal to the first leaf; the deepest
    first-path ancestor catches it and tries its next child."""


class _Engine:
    """Shared search for canonical labeling and automorphism generators.

    ``_node``'s ``fixers`` are the generators found so far that fix its
    prefix pointwise, in discovery order: a child keeps those fixing its new
    point, and a node adds newly found ones before testing a sibling.  That
    is the prefix filter of all generators, so every pruning decision, and
    with it the whole search and its output, is the same as filtering anew.

    ``order`` is the product, over the nodes of the first path (those entered
    before the first leaf), of the orbit of the node's first child under the
    node's final ``fixers``.  Once a first-path node's subtree is done, its
    fixers generate the pointwise stabilizer of its prefix: every child in
    the first child's orbit was either pruned into a known orbit or reached
    a leaf equal to the first one, whose automorphism maps it back.  The
    first leaf is discrete and so has a trivial stabilizer, which makes the
    product |Aut| by the orbit-stabilizer theorem (McKay 1981).

    With ``stop_key``, the search ends at the first leaf whose key equals it
    and keeps that leaf as best.  Up to that leaf it follows the full
    search's path, and the full search keeps the first leaf that reaches the
    minimum key (it replaces its best only on a smaller key), so when
    ``stop_key`` is the minimum the labeling is the full search's.  The
    generators and ``order`` of a stopped search are incomplete.

    With ``jump`` (McKay 1981), a leaf equal to the first leaf emits its
    automorphism γ and raises ``_Jump``, which the leaf's deepest first-path
    ancestor A catches; A then tries its next child.  The leaf lies under a
    child c of A other than A's first child c0 (else a deeper first-path node
    would be its ancestor), and γ fixes A's prefix pointwise and maps c to
    c0, so A's sibling-orbit pruning takes γ in.  γ⁻¹ carries c0's subtree,
    which is done, onto c's, so every key in the abandoned part of c's
    subtree occurs at a leaf to its left, as every key in a pruned subtree
    does, and by induction at a visited one.  So the leftmost leaf with the
    minimum key is visited and is the first to reach that key, in either
    search: keys, labelings, certificates and isomorphism mappings are the
    full search's, and a ``stop_key`` search stops at the same leaf, since
    the abandoned part holds no ``stop_key`` leaf that was not met before.
    ``order`` is unchanged: a jump leaves c's subtree only from a leaf equal
    to the first one, so every explored child of A in c0's orbit under the
    stabilizer of A's prefix still joins c0's orbit under A's fixers.

    The generators found are fewer, but they still generate Aut(g).  Let H
    be the group they generate, so H <= Aut(g).  At each first-path node,
    the node's fixers lie in H's pointwise stabilizer of its prefix, so c0's
    orbit under that stabilizer contains c0's orbit under the fixers.  The
    first leaf's prefix has a trivial stabilizer, so by the orbit-stabilizer
    theorem along the first path |H| >= ``order`` = |Aut(g)|, and H is
    Aut(g).  So a caller that reads the generators only as a group (orbits,
    order) sets ``jump``; one whose list is printed or pinned does not.
    """

    def __init__(self, g: Graph, initial_cells: list[list[int]],
                 stop_key: tuple | None = None, jump: bool = False):
        self.n = g.vertex_count
        self.adj = g.adjacency
        self.edges = g.edges
        self.initial_cells = [sorted(c) for c in initial_cells]
        self.first_key = self.first_lab = None
        self.best_key = self.best_lab = None
        self.stop_key = stop_key
        self.jump = jump
        self.gens: list[Perm] = []
        self._gen_seen: set[Perm] = set()
        self._cnt = [0] * self.n
        self.order = 1

    def run(self) -> tuple[tuple, Perm, list[Perm], int]:
        """Returns (canonical edge tuple, canonical labeling, generators,
        group order)."""
        if self.n == 0:
            return (), (), [], 1
        part = _Partition(self.initial_cells, self.n)
        self._refine(part, self.initial_cells)
        try:
            self._node(part, (), [])
        except _Stop:
            pass
        return self.best_key, self.best_lab, self.gens, self.order

    def _refine(self, part: _Partition, queue: list[list[int]]) -> None:
        """Refine in place to an equitable partition.

        Worklist discipline: pop a splitter set, recount its neighbors, and
        split every affected cell into fragments ordered by ascending count;
        fragments join the queue.  All decisions depend only on counts and
        partition structure, so isomorphic inputs refine along mirrored
        paths.
        """
        adj = self.adj
        cnt = self._cnt
        members = part.members
        cell_of = part.cell_of
        queue = deque(queue)
        while queue:
            splitter = queue.popleft()
            touched: dict[int, list[int]] = {}
            for w in splitter:
                for x in adj[w]:
                    if cnt[x] == 0:
                        touched.setdefault(cell_of[x], []).append(x)
                    cnt[x] += 1
            # partition order keeps the run label-independent
            for start in sorted(touched):
                cell = members.get(start)
                if cell is None:
                    continue
                hit = touched[start]
                if len(hit) == len(cell) and len({cnt[v] for v in hit}) == 1:
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault(cnt[v], []).append(v)
                if len(groups) > 1:
                    frags = [groups[key] for key in sorted(groups)]
                    part.split(start, frags)
                    queue.extend(frags)
            for hit in touched.values():
                for v in hit:
                    cnt[v] = 0

    def _leaf(self, part: _Partition) -> None:
        # in a discrete partition every vertex's cell start is its position
        lab = tuple(part.cell_of)
        key = tuple(sorted(
            (lab[u], lab[v]) if lab[u] < lab[v] else (lab[v], lab[u])
            for u, v in self.edges))
        if key == self.stop_key:
            self.best_key = key
            self.best_lab = lab
            raise _Stop
        if self.first_key is None:
            self.first_key = key
            self.first_lab = lab
            self.best_key = key
            self.best_lab = lab
            return
        if key == self.first_key:
            self._emit(lab, self.first_lab)
            if self.jump:
                raise _Jump
        if key < self.best_key:
            self.best_key = key
            self.best_lab = lab
        elif key == self.best_key and self.best_lab is not self.first_lab:
            self._emit(lab, self.best_lab)

    def _emit(self, lab: Perm, ref_lab: Perm) -> None:
        """Record the automorphism turning leaf ``lab`` into leaf ``ref_lab``."""
        ref_inv = inverse_perm(ref_lab)
        g = tuple(ref_inv[lab[v]] for v in range(self.n))
        if g != identity_perm(self.n) and g not in self._gen_seen:
            self._gen_seen.add(g)
            self.gens.append(g)

    def _node(self, part: _Partition, prefix: tuple[int, ...],
              fixers: list[Perm]) -> None:
        if not part.members:
            self._leaf(part)
            return
        first_path = self.first_key is None
        # the largest cell, the first in partition order among equals
        _, target = min(zip(map(neg, map(len, part.members.values())),
                            part.members))
        cell = part.members[target]
        seen = len(self.gens)
        # the orbit of the tried siblings under fixers, closed from pending
        orbit: set[int] = set()
        pending = ()
        for v in cell:
            if len(self.gens) > seen:
                new = [g for g in self.gens[seen:]
                       if all(g[p] == p for p in prefix)]
                seen = len(self.gens)
                if new:
                    fixers.extend(new)
                    pending = orbit
            if pending:
                orbit |= _closure(pending, fixers)
                pending = ()
            if v in orbit:
                continue
            orbit.add(v)
            pending = (v,)
            child = part.clone()
            child.split(target, [[v], [w for w in cell if w != v]])
            self._refine(child, [[v]])
            try:
                self._node(child, prefix + (v,),
                           [g for g in fixers if g[v] == v])
            except _Jump:
                if not first_path:
                    raise
        if first_path:
            fixers.extend(g for g in self.gens[seen:]
                          if all(g[p] == p for p in prefix))
            self.order *= len(_closure((cell[0],), fixers))


def _closure(points, tables) -> set[int]:
    """The closure of a set of points under actions given as image tables:
    ``t[x]`` is the image of point x under table t."""
    orbit = set(points)
    stack = list(orbit)
    while stack:
        x = stack.pop()
        for t in tables:
            y = t[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _color_cells(n: int, colors) -> tuple[list[list[int]], tuple]:
    """Initial partition from a vertex->sortable-key coloring."""
    if colors is None:
        return [list(range(n))], ()
    groups: dict = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    keys = sorted(groups)
    cells = [groups[k] for k in keys]
    signature = tuple((repr(k), len(groups[k])) for k in keys)
    return cells, signature


def _run_engine(g: Graph, colors=None, jump: bool = False
                ) -> tuple[tuple, Perm, list[Perm], tuple, int]:
    """(canonical edge tuple, labeling, generators, colour signature, order);
    with ``jump``, the generators are jump-back's (see ``_Engine``)."""
    cells, signature = _color_cells(g.vertex_count, colors)
    key, lab, gens, order = _Engine(g, cells, jump=jump).run()
    return key, lab, gens, signature, order


def automorphism_generators(g: Graph, colors=None) -> GeneratorSet:
    """Generators of Aut(g) (color-preserving automorphisms when colors given),
    carrying the group order the search recorded."""
    _, _, gens, _, order = _run_engine(g, colors)
    return GeneratorSet(g.vertex_count, tuple(gens), "aut", order)


def _aut_group(g: Graph) -> GeneratorSet:
    """Aut(g) for callers that read its generators only as a group (orbits,
    order): ``automorphism_generators(g)``'s group and recorded order, from
    the jump-back search, whose generator list differs and is usually
    shorter."""
    _, _, gens, _, order = _run_engine(g, jump=True)
    return GeneratorSet(g.vertex_count, tuple(gens), "aut", order)


def canonical_certificate(g: Graph, colors=None) -> bytes:
    """A byte string equal for isomorphic graphs and unequal otherwise.

    With ``colors``, equality means color-preserving isomorphism (for graphs
    whose color signatures match).  A connectivity-1 graph is certified from
    its block-cut tree (``decomposition._lobe_tree_certificate``), any other
    by the engine on the whole graph.  Tree certificates differ in bytes
    from the engine's, but are equal exactly when the engine's are.
    """
    from .decomposition import _lobe_tree_certificate  # imports this module
    return _lobe_tree_certificate(g, colors) or _engine_certificate(g, colors)


def _engine_certificate(g: Graph, colors=None) -> bytes:
    """``canonical_certificate`` from the engine, whatever the input."""
    cells, signature = _color_cells(g.vertex_count, colors)
    key, _, _, _ = _Engine(g, cells, jump=True).run()
    head = f"{g.vertex_count} {g.edge_count};{signature!r};".encode()
    body = b",".join(b"%d-%d" % e for e in key)
    return head + body


def find_isomorphism(g1: Graph, g2: Graph, colors1=None, colors2=None):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    With colors, only color-preserving isomorphisms are considered, and
    unequal colour multisets give None at once.  When either graph has
    connectivity 1, their block-cut tree certificates are compared first
    and differing ones give None at once; the mapping itself always comes
    from the engine.  g1's search runs to its end; g2's stops at its first
    leaf with g1's canonical form (``_Engine``'s ``stop_key``), which is the
    leaf g2's full search would keep, so the mapping is the one two full
    searches give.  Both searches jump back (``_Engine``'s ``jump``), which
    keeps that leaf and g1's canonical labeling.
    """
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    cells1, sig1 = _color_cells(n, colors1)
    cells2, sig2 = _color_cells(n, colors2)
    if sig1 != sig2:
        return None
    from .decomposition import _lobe_tree_certificate as tree  # see above
    if tree(g1, colors1) != tree(g2, colors2):
        return None
    key1, lab1, _, _ = _Engine(g1, cells1, jump=True).run()
    key2, lab2, _, _ = _Engine(g2, cells2, stop_key=key1, jump=True).run()
    if key1 != key2:
        return None
    lab2_inv = inverse_perm(lab2)
    return tuple(lab2_inv[lab1[v]] for v in range(n))


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

def _edge_image(p: Perm, e: tuple[int, int]) -> tuple[int, int]:
    a, b = p[e[0]], p[e[1]]
    return (a, b) if a < b else (b, a)


def _walk_image(p: Perm, walk: tuple[int, ...]) -> tuple[int, ...]:
    return itemgetter(*walk)(p)  # a tuple, since a walk has >= 2 vertices


def _image_tables(gens: GeneratorSet, elements, image,
                  error: str) -> list[list[int]]:
    """Each generator as an image table over element positions, where
    ``image(p, x)`` is the image of x under p; ValueError(error) when an
    image is not an element."""
    index = {x: i for i, x in enumerate(elements)}
    try:
        return [[index[image(p, x)] for x in elements]
                for p in gens.generators]
    except KeyError:
        raise ValueError(error) from None


def orbit_partition(gens: GeneratorSet, domain: str, *,
                    graph: Graph | None = None,
                    decomposition=None) -> OrbitPartition:
    """Orbits of the generated group acting on vertices, edges, arcs or lobes.

    ``graph`` is required for edges/arcs, ``decomposition`` for lobes.
    Raises ValueError when a generator does not act on the domain.
    """
    error = f"generator does not act on the {domain} domain"
    if domain == "vertices":
        elements: list = list(range(gens.degree))
        tables = gens.generators
    elif domain in ("edges", "arcs"):
        if graph is None:
            raise ValueError(f"{domain[:-1]} orbits need the graph as context")
        _check_degree(gens, graph.vertex_count)
        elements = list(graph.edges)
        image = _edge_image
        if domain == "arcs":
            elements = sorted(elements + [(v, u) for u, v in elements])
            image = _walk_image
        tables = _image_tables(gens, elements, image, error)
    elif domain == "lobes":
        if decomposition is None:
            raise ValueError("lobe orbits need the decomposition as context")
        _check_degree(gens, len(decomposition.lobes_at))
        elements = list(range(len(decomposition.lobes)))
        tables = _lobe_tables(gens, decomposition)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return OrbitPartition(domain, tuple(elements),
                          _orbit_cells(elements, tables))


def _orbit_cells(elements: list, tables) -> tuple[tuple, ...]:
    """Orbit cells on ``elements`` under image tables over their positions,
    each sorted, in the order of their first element."""
    seen: set[int] = set()
    cells = []
    for start in range(len(elements)):
        if start not in seen:
            orbit = _closure((start,), tables)
            seen |= orbit
            cells.append(tuple(sorted(elements[i] for i in orbit)))
    return tuple(cells)


def _check_degree(gens: GeneratorSet, vertex_count: int) -> None:
    if gens.degree != vertex_count:
        raise ValueError(
            f"generator degree {gens.degree} does not match graph on "
            f"{vertex_count} vertices")


def _lobe_tables(gens: GeneratorSet, decomposition) -> list[list[int]]:
    """For each generator, the induced permutation of lobe ids."""
    return _image_tables(
        gens, [frozenset(lobe.edges) for lobe in decomposition.lobes],
        lambda p, edges: frozenset(_edge_image(p, e) for e in edges),
        "generator does not permute the lobes")


def _transversal(base: int, actions,
                 identity: Perm) -> tuple[dict[int, Perm], dict[int, Perm]]:
    """A Schreier transversal of the orbit of ``base``, found breadth-first,
    and its inverses.  ``actions`` pairs each perm p with the table t by
    which it acts on the points; ``transversal[x]`` maps base to x."""
    transversal = {base: identity}
    queue = deque([base])
    while queue:
        x = queue.popleft()
        for p, t in actions:
            y = t[x]
            if y not in transversal:
                transversal[y] = compose(p, transversal[x])
                queue.append(y)
    return transversal, {x: inverse_perm(t) for x, t in transversal.items()}


def _schreier_generators(transversal: dict[int, Perm],
                         inverse: dict[int, Perm], actions, identity: Perm):
    """Schreier's lemma: the non-identity elements
    inverse[t[x]] * p * transversal[x], over the points x in sorted order
    and the actions (p, t) in order, generate the stabilizer of the base."""
    for x in sorted(transversal):
        t_x = transversal[x]
        for p, t in actions:
            u = compose(inverse[t[x]], compose(p, t_x))
            if u != identity:
                yield u


def lobe_stabilizer(g: Graph, gens: GeneratorSet, decomposition,
                    lobe_id: int) -> GeneratorSet:
    """Schreier generators for the setwise stabilizer of one lobe.

    ``gens`` must generate Aut(g); the result generates the subgroup mapping
    the chosen lobe onto itself.
    """
    if not (0 <= lobe_id < len(decomposition.lobes)):
        raise ValueError(f"invalid lobe id {lobe_id}")
    _check_degree(gens, g.vertex_count)
    actions = list(zip(gens, _lobe_tables(gens, decomposition)))
    ident = identity_perm(gens.degree)
    transversal, inverse = _transversal(lobe_id, actions, ident)
    out = dict.fromkeys(
        _schreier_generators(transversal, inverse, actions, ident))
    return GeneratorSet(gens.degree, tuple(out), "stabilizer")


def restrict_to(gens: GeneratorSet, vertices) -> GeneratorSet:
    """Restrict an action to an invariant vertex subset, relabeled densely.

    ``vertices`` must be closed under every generator.
    """
    ordered = sorted(set(vertices))
    if ordered and not 0 <= ordered[0] <= ordered[-1] < gens.degree:
        raise ValueError(f"vertex outside 0..{gens.degree - 1}")
    tables = _image_tables(gens, ordered, getitem,
                           "vertex set is not invariant under the generators")
    return GeneratorSet(len(ordered), tuple(map(tuple, tables)), gens.kind)


# ---------------------------------------------------------------------------
# Group order via a stabilizer chain, for sets the search did not produce
# ---------------------------------------------------------------------------

class _Chain:
    """Deterministic Schreier-Sims chain: orbit + transversal per base point.

    ``gens`` holds only the generators first registered at this level; the
    full generating set for the level's group is ``generators()``, which also
    pulls everything registered deeper (those fix this level's base point
    prefix by construction).  ``inverse[x]`` is the inverse of
    ``transversal[x]``; every level shares one identity tuple.
    """

    __slots__ = ("identity", "basepoint", "gens", "transversal", "inverse",
                 "stab")

    def __init__(self, identity: Perm):
        self.identity = identity
        self.basepoint: int | None = None
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {}
        self.inverse: dict[int, Perm] = {}
        self.stab: _Chain | None = None

    def generators(self) -> list[Perm]:
        if self.stab is None:
            return list(self.gens)
        return self.stab.generators() + self.gens

    def order(self) -> int:
        if self.basepoint is None:
            return 1
        return len(self.transversal) * self.stab.order()

    def sift(self, p: Perm) -> Perm:
        if self.basepoint is None:
            return p
        x = p[self.basepoint]
        if x not in self.transversal:
            return p
        return self.stab.sift(compose(self.inverse[x], p))

    def add(self, p: Perm) -> None:
        p = self.sift(p)
        if p == self.identity:
            return
        if self.basepoint is None:
            self.basepoint = next(i for i, x in enumerate(p) if x != i)
            self.stab = _Chain(self.identity)
        if p[self.basepoint] == self.basepoint:
            self.stab.add(p)
        else:
            self.gens.append(p)
        actions = [(g, g) for g in self.generators()]
        self.transversal, self.inverse = _transversal(
            self.basepoint, actions, self.identity)
        # Schreier's lemma: sift every Schreier generator into the stabilizer
        for u in _schreier_generators(self.transversal, self.inverse,
                                      actions, self.identity):
            self.stab.add(u)


def group_order(gens: GeneratorSet,
                degree_bound: int = GROUP_ORDER_DEGREE_BOUND) -> int:
    """Order of the generated group.

    Sets from ``automorphism_generators`` and ``lobe_classes`` carry the
    order their search recorded, which is returned as it is, whatever the
    degree.  Others (``generator_set``, ``restrict_to``, ``lobe_stabilizer``)
    get a Schreier-Sims chain, refused above ``degree_bound``.
    """
    if gens.order is not None:
        return gens.order
    if gens.degree > degree_bound:
        raise ValueError(
            f"degree {gens.degree} exceeds the configured bound {degree_bound}")
    chain = _Chain(identity_perm(gens.degree))
    for p in gens.generators:
        chain.add(p)
    return chain.order()
