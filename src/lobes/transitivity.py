"""Transitivity of connectivity-1 graphs: theorem checkers and direct oracle.

Each checker evaluates the combinatorial conditions characterizing the
property (single lobe class, stabilizer-orbit counting functions constant on
automorphism orbits, bipartite counting patterns, ...).  The direct oracle
(:func:`classify_direct`) answers the same questions by counting orbits of
the automorphism group; the test suite enforces that both routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decomposition import (LobeClasses, LobeDecomposition, connectivity_class,
                            decompose, lobe_classes, lobe_distances)
from .graph import Graph, bipartition, is_connected
from .symmetry import (GeneratorSet, _aut_group, _engine_certificate,
                       _image_tables, _orbit_cells, _walk_image,
                       find_isomorphism, orbit_partition)


class TransitivityError(ValueError):
    """Precondition violation in a transitivity operation."""


class ExtensionError(ValueError):
    """Lobe-ball extension hit incompatible membership counts.

    ``shell`` is the first ball radius that cannot be completed and
    ``vertex`` the witness anchor.
    """

    def __init__(self, shell: int, vertex: int, message: str):
        super().__init__(message)
        self.shell = shell
        self.vertex = vertex


@dataclass(frozen=True)
class Verdict:
    """Boolean answer with optional witness and case data."""
    holds: bool
    witness: object = None
    case: str | None = None
    constants: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class OrbitCounts:
    """Direct orbit counts of Aut(g) on the four domains."""
    vertex_orbits: int
    edge_orbits: int
    arc_orbits: int
    lobe_orbits: int | None = None


@dataclass(frozen=True)
class TauTable:
    """Counting functions tau[(k, j)][v]: lobes of class k holding v with
    orbit label j, plus per-(k, j) constancy flags."""
    keys: tuple[tuple[int, int], ...]
    values: dict
    constant: dict

    def row_sum(self, v: int) -> int:
        return sum(self.values[key][v] for key in self.keys)


def _require_multi_lobe(d: LobeDecomposition, op: str) -> None:
    # decompose refuses disconnected input, so two lobes mean connectivity 1
    if d.lobe_count < 2:
        raise TransitivityError(
            f"{op} requires a connectivity-1 input (at least 2 lobes)")


def tau_table(g: Graph, d: LobeDecomposition, classes: LobeClasses) -> TauTable:
    """Tabulate the per-class orbit-label membership counts."""
    if d.lobe_count < 2:
        raise TransitivityError("tau_table requires at least 2 lobes")
    n = g.vertex_count
    keys = []
    values = {}
    for k in range(classes.class_count):
        for j in range(classes.label_counts[k]):
            keys.append((k, j))
            values[(k, j)] = [0] * n
    for i in range(d.lobe_count):
        k = classes.class_of[i]
        for v, j in classes.vertex_label[i].items():
            values[(k, j)][v] += 1
    frozen = {key: tuple(col) for key, col in values.items()}
    constant = {key: len(set(col)) == 1 for key, col in frozen.items()}
    return TauTable(tuple(keys), frozen, constant)


def classify_direct(g: Graph) -> OrbitCounts:
    """Ground-truth orbit counts of Aut(g) on vertices, edges, arcs, lobes."""
    if not is_connected(g):
        raise TransitivityError("classify_direct requires a connected input")
    d = decompose(g) if connectivity_class(g) == "connectivity_one" else None
    return _orbit_counts(g, _aut_group(g), d)


def _orbit_counts(g: Graph, gens: GeneratorSet,
                  d: LobeDecomposition | None) -> OrbitCounts:
    """Orbit counts of the group ``gens`` generates; lobes only given ``d``."""
    vertex_orbits = orbit_partition(gens, "vertices").cell_count
    edge_orbits = orbit_partition(gens, "edges", graph=g).cell_count
    arc_orbits = orbit_partition(gens, "arcs", graph=g).cell_count
    lobe_orbits = None
    if d is not None:
        lobe_orbits = orbit_partition(gens, "lobes",
                                      decomposition=d).cell_count
    return OrbitCounts(vertex_orbits, edge_orbits, arc_orbits, lobe_orbits)


def is_vertex_transitive_thm(g: Graph, d: LobeDecomposition,
                             tau: TauTable) -> bool:
    """Vertex transitivity criterion: every counting function constant."""
    _require_multi_lobe(d, "is_vertex_transitive_thm")
    return all(tau.constant.values())


# ---------------------------------------------------------------------------
# Lobe transitivity
# ---------------------------------------------------------------------------

def _nonisomorphic_lobes(classes: LobeClasses, lobe0: int) -> Verdict | None:
    """The failing verdict when some lobe is not isomorphic to ``lobe0``."""
    k0 = classes.class_of[lobe0]
    for i, k in enumerate(classes.class_of):
        if k != k0:
            return Verdict(False, witness=("nonisomorphic_lobes", (lobe0, i)))
    return None


def _first_unlike_lobe(d: LobeDecomposition, colors, lobe0: int) -> int | None:
    """The first lobe, in id order, that no isomorphism from ``lobe0``
    keeping every vertex's ``colors[v]`` reaches; None if there is none."""
    def cert(lobe):
        sub, orig = lobe.subgraph()
        return _engine_certificate(sub, [colors[v] for v in orig])
    cert0 = cert(d.lobes[lobe0])
    return next((i for i, lobe in enumerate(d.lobes)
                 if i != lobe0 and cert(lobe) != cert0), None)


def is_lobe_transitive_thm(g: Graph, d: LobeDecomposition,
                           classes: LobeClasses, gens: GeneratorSet,
                           lobe0: int = 0) -> Verdict:
    """Lobe transitivity via the two-part criterion.

    ``classes`` is ``lobe_classes(g, d)`` and ``gens`` is any generating
    set of Aut(g); ``lobe0`` is the base lobe.

    Condition (1): a single lobe isomorphism class.  Condition (2): some
    choice of reference labelings makes every stabilizer-orbit counting
    function constant on each Aut(g) vertex orbit.  (2) holds exactly when
    every lobe has an isomorphism from ``lobe0`` keeping each vertex's
    Aut(g) orbit; the first lobe without one is the witness.

    - The stabilizer of a lobe L has as orbits on L the Aut(g) orbits met
      by L, cut down to it: an automorphism s carrying u to v != u, both in
      L, fixes L.  A non-cut u lies in L alone, so v lies in s(L) alone.
      Cut vertices u, v are equally far from the fixed centre of the
      block-cut tree, so both paths from it end through L, and s maps L,
      u's neighbour towards the centre, to v's, which is L.  So a cell's
      key (size, orbit) is unique in its lobe, and the only labeling of
      L's cells by those of ``lobe0`` gives each vertex its orbit's label.
    - Then v has one label j in every lobe at v, so its counting vector is
      (lobes at v) times the j-th unit vector, constant on its orbit.
    - Labels and orbits correspond one to one on both sides, so that
      labeling is realised by an isomorphism exactly when the
      orbit-coloured certificates of L and ``lobe0`` are equal.
    """
    _require_multi_lobe(d, "is_lobe_transitive_thm")
    if not (0 <= lobe0 < d.lobe_count):
        raise TransitivityError(f"invalid base lobe id {lobe0}")
    failed = _nonisomorphic_lobes(classes, lobe0)
    if failed is not None:
        return failed
    orb_ix = orbit_partition(gens, "vertices").cell_index()
    i = _first_unlike_lobe(d, orb_ix, lobe0)
    if i is not None:
        return Verdict(False, witness=("incompatible_lobe", (lobe0, i)))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Edge and arc transitivity
# ---------------------------------------------------------------------------

def _edge_pattern(lobe: Graph, gens: GeneratorSet, host_vt: bool, counts,
                  sides, side_sums, unaligned) -> Verdict:
    """The edge criterion for a host whose lobes are all isomorphic to
    ``lobe``, with Aut(lobe) generated by ``gens``.

    ``counts[t]`` is the number of lobes at a type-t vertex, ``sides`` the
    types on each host side (None if the host is not bipartite), and
    ``side_sums[s][t]`` the number of lobes holding a type-t vertex on their
    side s.  ``unaligned()`` is None when every lobe has a host-side
    preserving isomorphism from lobe 0, else a lobe without one.  Patterns:
    3a, a vertex-transitive lobe and host with a constant count; 3b, a
    vertex-transitive host with constant per-side sums; 3c, any other
    bipartite host with aligned lobes and a constant count on each side, at
    least 2 on one side.
    """
    if orbit_partition(gens, "edges", graph=lobe).cell_count != 1:
        return Verdict(False, witness=("lobe_not_edge_transitive", 0))
    if host_vt and orbit_partition(gens, "vertices").cell_count == 1:
        case, per_side = "3a", [list(enumerate(counts))]
    elif sides is None:
        return Verdict(False, witness=("not_bipartite", None))
    elif host_vt:
        case, per_side = "3b", [list(enumerate(row)) for row in side_sums]
    else:
        i = unaligned()
        if i is not None:
            return Verdict(False, witness=("side_alignment", (0, i)))
        case, per_side = "3c", [[(t, counts[t]) for t in side]
                                for side in sides]
    m = tuple(side[0][1] for side in per_side)
    for s, side in enumerate(per_side):
        t = next((t for t, c in side if c != m[s]), None)
        if t is not None:
            return Verdict(False, witness=("side_count_not_constant", (s, t)))
    if case == "3c" and max(m) < 2:
        return Verdict(False, witness=("all_counts_one", None))
    return Verdict(True, case=case, constants=m)


def _arc_pattern(lobe: Graph, gens: GeneratorSet, counts) -> Verdict:
    """The arc criterion: an arc-transitive ``lobe`` and the same number of
    lobes, ``counts[t]``, at every vertex type t."""
    if orbit_partition(gens, "arcs", graph=lobe).cell_count != 1:
        return Verdict(False, witness=("lobe_not_arc_transitive", 0))
    if len(set(counts)) != 1:
        return Verdict(False,
                       witness=("lobe_count_not_constant", sorted(set(counts))))
    return Verdict(True)


def is_edge_transitive_thm(g: Graph, d: LobeDecomposition,
                           classes: LobeClasses) -> Verdict:
    """Edge transitivity: edge-transitive isomorphic lobes plus a counting
    pattern.  ``classes`` is ``lobe_classes(g, d)``.

    Of the three patterns (3a / 3b / 3c) only 3c can hold here: 3a and 3b
    need a vertex-transitive host, and a finite connectivity-1 graph is never
    vertex-transitive, because a non-cut vertex of a leaf lobe lies in one
    lobe and a cut vertex in two or more.  3a and 3b arise only in the limit
    (:func:`lobes.builder.classify_limit`).  Pattern 3c: a bipartite host,
    lobes isomorphic to lobe 0 by side-preserving maps, and a constant
    number of lobes at the vertices of each side, at least 2 on one side.
    Each vertex is its own type in :func:`_edge_pattern`.
    """
    _require_multi_lobe(d, "is_edge_transitive_thm")
    failed = _nonisomorphic_lobes(classes, 0)
    if failed is not None:
        return failed
    sides = bipartition(g)
    side_of = {v: s for s, side in enumerate(sides or ()) for v in side}
    # lobe 0 is the representative of class 0
    return _edge_pattern(d.lobes[0].subgraph()[0], classes.rep_generators[0],
                         False, [len(at) for at in d.lobes_at], sides, None,
                         lambda: _first_unlike_lobe(d, side_of, 0))


def is_arc_transitive_thm(g: Graph, d: LobeDecomposition,
                          classes: LobeClasses) -> Verdict:
    """Arc transitivity: arc-transitive isomorphic lobes and a uniform
    number of lobes at every vertex.  ``classes`` is ``lobe_classes(g, d)``."""
    _require_multi_lobe(d, "is_arc_transitive_thm")
    failed = _nonisomorphic_lobes(classes, 0)
    if failed is not None:
        return failed
    return _arc_pattern(d.lobes[0].subgraph()[0], classes.rep_generators[0],
                        [len(at) for at in d.lobes_at])


def tree_edge_transitivity(g: Graph) -> tuple[int, int] | None:
    """For a finite tree: the valence pair (n1, n2) with n1 <= n2 if every
    edge joins one vertex of valence n1 to one of valence n2, else None."""
    if not is_connected(g) or g.edge_count != g.vertex_count - 1:
        raise TransitivityError("tree_edge_transitivity requires a tree")
    if g.edge_count == 0:
        raise TransitivityError("tree_edge_transitivity requires >= 1 edge")
    deg = g.degrees()
    pairs = {(min(deg[u], deg[v]), max(deg[u], deg[v])) for u, v in g.edges}
    if len(pairs) == 1:
        return pairs.pop()
    return None


def enumerate_k_arcs(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All walks on k+1 vertices without immediate backtracking."""
    if k < 1:
        raise TransitivityError(f"k must be >= 1, got {k}")
    walks = [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    walks.sort()
    for _ in range(k - 1):
        extended = []
        for walk in walks:
            prev, last = walk[-2], walk[-1]
            for nxt in g.adjacency[last]:
                if nxt != prev:
                    extended.append(walk + (nxt,))
        walks = extended
    return walks


def k_arc_orbit_count(g: Graph, k: int) -> int:
    """Number of Aut(g)-orbits on k-arcs."""
    if not is_connected(g):
        raise TransitivityError("k_arc_orbit_count requires a connected input")
    arcs = enumerate_k_arcs(g, k)
    if not arcs:
        raise TransitivityError(f"graph has no {k}-arcs")
    tables = _image_tables(_aut_group(g), arcs, _walk_image,
                           f"generator does not act on the {k}-arcs domain")
    return len(_orbit_cells(arcs, tables))


# ---------------------------------------------------------------------------
# Lobe-ball isomorphism extension (amalgamation)
# ---------------------------------------------------------------------------

def extend_lobe_isomorphism(g: Graph, d: LobeDecomposition, source_lobe: int,
                            target_lobe: int, iso: dict, target_radius: int):
    """Extend a root-compatible lobe-ball isomorphism shell by shell.

    ``iso`` must map the radius-r ball around ``source_lobe`` onto the
    radius-r ball around ``target_lobe`` for some r <= target_radius, carrying
    the root lobe onto the root lobe.  At each anchor vertex the pending lobes
    on both sides are matched up by class and orbit label; a count mismatch
    raises :class:`ExtensionError` with the offending shell and vertex.
    Returns the extended vertex map covering the target-radius ball.
    """
    if not (0 <= source_lobe < d.lobe_count and 0 <= target_lobe < d.lobe_count):
        raise TransitivityError("invalid lobe id")
    classes = lobe_classes(g, d)
    if classes.class_of[source_lobe] != classes.class_of[target_lobe]:
        raise TransitivityError("root lobes are not isomorphic")
    dist_s = lobe_distances(d, source_lobe)
    dist_t = lobe_distances(d, target_lobe)
    if target_radius > max(dist_s):
        raise TransitivityError(
            f"radius {target_radius} exceeds the available graph "
            f"(max {max(dist_s)})")

    def ball_vertices(dist, r):
        out = set()
        for i, lobe in enumerate(d.lobes):
            if dist[i] <= r:
                out.update(lobe.vertices)
        return out

    domain = set(iso)
    r0 = None
    for r in range(target_radius + 1):
        if ball_vertices(dist_s, r) == domain:
            r0 = r
            break
    if r0 is None:
        raise TransitivityError(
            "iso domain is not a lobe-ball around the source lobe")
    mapping = dict(iso)
    _validate_partial_iso(g, d, mapping, source_lobe, target_lobe)
    if set(mapping.values()) != ball_vertices(dist_t, r0):
        raise TransitivityError(
            "iso image is not the matching lobe-ball around the target lobe")

    mapped_s = {i for i in range(d.lobe_count) if dist_s[i] <= r0}
    mapped_t = {i for i in range(d.lobe_count) if dist_t[i] <= r0}
    for r in range(r0, target_radius):
        anchors = sorted(v for v in mapping
                         if any(i not in mapped_s for i in d.lobes_at[v]))
        for v in anchors:
            w = mapping[v]
            pend_s = [i for i in d.lobes_at[v] if i not in mapped_s]
            pend_t = [i for i in d.lobes_at[w] if i not in mapped_t]
            key = lambda i, x: (classes.class_of[i], classes.vertex_label[i][x])
            groups_s: dict = {}
            for i in pend_s:
                groups_s.setdefault(key(i, v), []).append(i)
            groups_t: dict = {}
            for i in pend_t:
                groups_t.setdefault(key(i, w), []).append(i)
            if {k: len(v_) for k, v_ in groups_s.items()} != \
                    {k: len(v_) for k, v_ in groups_t.items()}:
                raise ExtensionError(
                    r + 1, v,
                    f"membership counts diverge at vertex {v} (shell {r + 1})")
            for gkey in sorted(groups_s):
                for ls, lt in zip(sorted(groups_s[gkey]), sorted(groups_t[gkey])):
                    _glue_lobe_pair(d, mapping, ls, lt, v, w)
                    mapped_s.add(ls)
                    mapped_t.add(lt)
    return mapping


def _validate_partial_iso(g, d, mapping, source_lobe, target_lobe) -> None:
    values = set(mapping.values())
    if len(values) != len(mapping):
        raise TransitivityError("iso is not injective")
    for u in mapping:
        for x in g.adjacency[u]:
            if x in mapping and not g.has_edge(mapping[u], mapping[x]):
                raise TransitivityError("iso does not preserve adjacency")
    for u, mu in mapping.items():
        if len([x for x in g.adjacency[u] if x in mapping]) != \
                len([x for x in g.adjacency[mu] if x in values]):
            raise TransitivityError("iso does not preserve adjacency")
    src = set(d.lobes[source_lobe].vertices)
    tgt = set(d.lobes[target_lobe].vertices)
    if {mapping[v] for v in src} != tgt:
        raise TransitivityError("iso does not map the root lobe onto the root lobe")


def _glue_lobe_pair(d, mapping, ls, lt, v, w) -> None:
    sub_s, orig_s = d.lobes[ls].subgraph()
    sub_t, orig_t = d.lobes[lt].subgraph()
    colors_s = [1 if x == v else 0 for x in orig_s]
    colors_t = [1 if x == w else 0 for x in orig_t]
    piece = find_isomorphism(sub_s, sub_t, colors_s, colors_t)
    if piece is None:  # class and label agree, so this cannot happen
        raise RuntimeError("anchored lobe isomorphism unexpectedly missing")
    for x_local, x in enumerate(orig_s):
        y = orig_t[piece[x_local]]
        if x in mapping:
            if mapping[x] != y:
                raise RuntimeError("lobe gluing conflict at a mapped vertex")
        else:
            mapping[x] = y


# ---------------------------------------------------------------------------
# Full classification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Theorem and oracle verdicts for one graph, with consistency flag."""
    connectivity: str
    oracle: OrbitCounts
    theorem: dict | None
    edge_case: str | None
    tree_valences: tuple[int, int] | None
    m_constants: tuple[int, ...] | None
    consistent: bool | None
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "connectivity": self.connectivity,
            "oracle": {
                "vertex_orbits": self.oracle.vertex_orbits,
                "edge_orbits": self.oracle.edge_orbits,
                "arc_orbits": self.oracle.arc_orbits,
                "lobe_orbits": self.oracle.lobe_orbits,
            },
            "theorem": self.theorem,
            "edge_case": self.edge_case,
            "tree_valences": list(self.tree_valences) if self.tree_valences else None,
            "m_constants": list(self.m_constants) if self.m_constants else None,
            "consistent": self.consistent,
            "witnesses": self.witnesses,
        }
        return doc


def classify(g: Graph) -> ClassificationReport:
    """Classify a connected graph via both routes.

    Theorem verdicts apply only to connectivity-1 inputs (which always have
    at least two lobes); biconnected inputs and K2 are reported by the
    oracle alone.  Aut(g), the decomposition and the lobe classes are
    computed once and shared by the oracle and the checkers.
    """
    if not is_connected(g) or g.vertex_count == 0:
        raise TransitivityError("classify requires a nonempty connected input")
    conn = connectivity_class(g)
    gens = _aut_group(g)
    d = decompose(g) if conn == "connectivity_one" else None
    oracle = _orbit_counts(g, gens, d)
    theorem = None
    edge_case = None
    m_constants = None
    consistent = None
    witnesses: dict = {}
    if d is not None:
        classes = lobe_classes(g, d)
        tau = tau_table(g, d, classes)
        v_thm = is_vertex_transitive_thm(g, d, tau)
        l_thm = is_lobe_transitive_thm(g, d, classes, gens)
        e_thm = is_edge_transitive_thm(g, d, classes)
        a_thm = is_arc_transitive_thm(g, d, classes)
        theorem = {
            "vertex": v_thm,
            "lobe": l_thm.holds,
            "edge": e_thm.holds,
            "arc": a_thm.holds,
        }
        edge_case = e_thm.case if e_thm.holds else None
        m_constants = e_thm.constants
        for name, verdict in (("lobe", l_thm), ("edge", e_thm), ("arc", a_thm)):
            if verdict.witness is not None:
                witnesses[name] = verdict.witness
        consistent = (
            v_thm == (oracle.vertex_orbits == 1)
            and l_thm.holds == (oracle.lobe_orbits == 1)
            and e_thm.holds == (oracle.edge_orbits == 1)
            and a_thm.holds == (oracle.arc_orbits == 1))
    tree_valences = None
    if g.edge_count == g.vertex_count - 1 and g.edge_count >= 1:
        tree_valences = tree_edge_transitivity(g)
    return ClassificationReport(conn, oracle, theorem, edge_case,
                                tree_valences, m_constants, consistent,
                                witnesses)
