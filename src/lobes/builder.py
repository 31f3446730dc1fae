"""Grow finite truncations of lobe-transitive graphs from local data.

A build spec consists of a biconnected seed lobe, a subgroup of its
automorphisms (whose vertex orbits are the attachment cells), a coarser
partition of the seed's vertices, and per-cell multiplicities saying how many
lobes must hold each vertex in each attachment position.  Truncations are
grown stage by stage, deterministically: frontier vertices in ascending id
order, attachment cells in ascending index order, fresh ids in creation
order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .decomposition import _lobe_tree_codes, connectivity_class
from .graph import Graph, GraphError, bipartition, make_graph
from .symmetry import (GeneratorSet, _engine_certificate,
                       automorphism_generators, canonical_certificate,
                       generator_set, orbit_partition)
from .transitivity import _arc_pattern, _edge_pattern

DEFAULT_MAX_VERTICES = 100000


class BuildSpecError(ValueError):
    """Invalid build specification."""


class ResourceCapError(RuntimeError):
    """A truncation or a search would exceed a configured cap."""


@dataclass(frozen=True)
class BuildSpec:
    """Validated build data; construct via :func:`validate_spec`.

    ``q_cells`` are the orbits of the chosen subgroup, sorted by minimal
    element; ``r_cells`` keep their input order; ``mu[k][j]`` is the required
    number of lobes holding a cell-k vertex at attachment position j.
    """
    lambda0: Graph
    h_source: str
    h_generators: GeneratorSet
    q_cells: tuple[tuple[int, ...], ...]
    r_cells: tuple[tuple[int, ...], ...]
    r_of_q: tuple[int, ...]
    mu: tuple[tuple[int, ...], ...]
    depth: int


@dataclass(frozen=True)
class LobeRecord:
    """One registered lobe copy: creation depth and its embedding map.

    ``sigma[i]`` is the truncation vertex carrying seed vertex i.
    """
    lobe_id: int
    depth: int
    sigma: tuple[int, ...]


@dataclass(frozen=True)
class BuildResult:
    """A truncation with its lobe registry and per-vertex creation depths."""
    graph: Graph
    lambda0: Graph
    lobes: tuple[LobeRecord, ...]
    vertex_depth: tuple[int, ...]
    depth: int

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "vertex_count": self.graph.vertex_count,
            "vertex_depth": list(self.vertex_depth),
            "lambda0": {"n": self.lambda0.vertex_count,
                        "edges": [list(e) for e in self.lambda0.edges]},
            "lobes": [{"id": rec.lobe_id, "depth": rec.depth,
                       "sigma": list(rec.sigma)} for rec in self.lobes],
        }


def validate_spec(doc: dict) -> BuildSpec:
    """Parse and validate a build-spec document (schema in docs/formats.md)."""
    if not isinstance(doc, dict):
        raise BuildSpecError("spec document must be a JSON object")
    for key in ("lambda0", "h", "r_partition", "mu", "depth"):
        if key not in doc:
            raise BuildSpecError(f"spec document is missing {key!r}")

    lam_doc = doc["lambda0"]
    try:
        lambda0 = make_graph(int(lam_doc["n"]),
                             [tuple(e) for e in lam_doc["edges"]])
    except (GraphError, KeyError, TypeError, ValueError) as exc:
        raise BuildSpecError(f"bad lambda0: {exc}") from exc
    conn = connectivity_class(lambda0)
    if conn not in ("biconnected", "single_K2"):
        raise BuildSpecError(
            f"lambda0 must be biconnected (or a single edge), got {conn}")
    n0 = lambda0.vertex_count

    h_doc = doc["h"]
    if h_doc == "aut":
        h_gens = automorphism_generators(lambda0)
        h_source = "aut"
    else:
        if not isinstance(h_doc, list):
            raise BuildSpecError('"h" must be "aut" or a list of permutations')
        try:
            h_gens = generator_set(h_doc, n0, "user", graph=lambda0)
        except (TypeError, ValueError) as exc:
            raise BuildSpecError(f"bad subgroup generator: {exc}") from exc
        h_source = "user"

    q_cells = orbit_partition(h_gens, "vertices").cells

    r_raw = doc["r_partition"]
    if not isinstance(r_raw, list) or not all(isinstance(c, list) for c in r_raw):
        raise BuildSpecError('"r_partition" must be a list of vertex lists')
    seen: set[int] = set()
    r_cells = []
    for cell in r_raw:
        try:
            cell = tuple(sorted(int(v) for v in cell))
        except (TypeError, ValueError) as exc:
            raise BuildSpecError(f"bad r_partition cell {cell!r}") from exc
        if not cell:
            raise BuildSpecError("empty cell in r_partition")
        for v in cell:
            if not 0 <= v < n0:
                raise BuildSpecError(f"r_partition vertex {v} out of range")
            if v in seen:
                raise BuildSpecError(f"vertex {v} appears twice in r_partition")
            seen.add(v)
        r_cells.append(cell)
    if len(seen) != n0:
        raise BuildSpecError("r_partition does not cover every vertex")

    r_index = {}
    for k, cell in enumerate(r_cells):
        for v in cell:
            r_index[v] = k
    r_of_q = []
    for j, cell in enumerate(q_cells):
        ks = {r_index[v] for v in cell}
        if len(ks) != 1:
            raise BuildSpecError(
                f"orbit cell {list(cell)} is not contained in one r_partition cell")
        r_of_q.append(ks.pop())

    mu = [[0] * len(q_cells) for _ in r_cells]
    if not isinstance(doc["mu"], list):
        raise BuildSpecError('"mu" must be a list of {"k", "values"} entries')
    seen_k: set[int] = set()
    for entry in doc["mu"]:
        try:
            k = int(entry["k"])
            values = entry["values"]
            if not isinstance(values, dict):
                raise TypeError("values must be an object")
        except (KeyError, TypeError, ValueError) as exc:
            raise BuildSpecError(f"bad mu entry {entry!r}: {exc}") from exc
        if not 0 <= k < len(r_cells):
            raise BuildSpecError(f"mu entry has cell index {k} out of range")
        if k in seen_k:
            raise BuildSpecError(f"duplicate mu entry for cell {k}")
        seen_k.add(k)
        for j_str, val in values.items():
            try:
                j = int(j_str)
            except (TypeError, ValueError) as exc:
                raise BuildSpecError(f"bad orbit index {j_str!r} in mu") from exc
            if not 0 <= j < len(q_cells):
                raise BuildSpecError(f"mu value has orbit index {j} out of range")
            if not isinstance(val, int) or isinstance(val, bool):
                raise BuildSpecError(
                    f"mu value for (k={k}, j={j}) must be a finite integer, "
                    f"got {val!r}")
            if val < 0:
                raise BuildSpecError(f"mu value for (k={k}, j={j}) is negative")
            mu[k][j] = val

    for j, k in enumerate(r_of_q):
        if mu[k][j] <= 0:
            raise BuildSpecError(
                f"mu[{k}][{j}] must be positive: orbit cell {j} lies in "
                f"r_partition cell {k}")
    for k in range(len(r_cells)):
        for j in range(len(q_cells)):
            if r_of_q[j] != k and mu[k][j] != 0:
                raise BuildSpecError(
                    f"mu[{k}][{j}] must be zero: orbit cell {j} is not in "
                    f"r_partition cell {k}")
    if all(sum(row) < 2 for row in mu):
        raise BuildSpecError(
            "every cell has total multiplicity < 2; the build would be a "
            "single lobe")

    depth = doc["depth"]
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise BuildSpecError(f"depth must be a nonnegative integer, got {depth!r}")

    return BuildSpec(lambda0, h_source, h_gens, tuple(q_cells),
                     tuple(r_cells), tuple(r_of_q),
                     tuple(tuple(row) for row in mu), depth)


def spec_to_json_dict(spec: BuildSpec) -> dict:
    h: object = "aut" if spec.h_source == "aut" else [
        list(p) for p in spec.h_generators.generators]
    return {
        "lambda0": {"n": spec.lambda0.vertex_count,
                    "edges": [list(e) for e in spec.lambda0.edges]},
        "h": h,
        "r_partition": [list(cell) for cell in spec.r_cells],
        "mu": [{"k": k, "values": {str(j): spec.mu[k][j]
                                   for j in range(len(spec.q_cells))
                                   if spec.mu[k][j] > 0}}
               for k in range(len(spec.r_cells))],
        "depth": spec.depth,
    }


def with_depth(spec: BuildSpec, depth: int) -> BuildSpec:
    if depth < 0:
        raise BuildSpecError(f"depth must be nonnegative, got {depth}")
    return dataclasses.replace(spec, depth=depth)


def build_truncation(spec: BuildSpec,
                     max_vertices: int = DEFAULT_MAX_VERTICES) -> BuildResult:
    """Grow the truncation to the spec's depth, stage by stage."""
    lam = spec.lambda0
    n0 = lam.vertex_count
    if n0 > max_vertices:
        raise ResourceCapError(f"seed already exceeds the cap {max_vertices}")
    q_of_local = [0] * n0
    for j, cell in enumerate(spec.q_cells):
        for v in cell:
            q_of_local[v] = j

    edges = list(lam.edges)
    lobes = [LobeRecord(0, 0, tuple(range(n0)))]
    vertex_depth = [0] * n0
    next_id = n0
    frontier = [(v, q_of_local[v]) for v in range(n0)]

    for stage in range(1, spec.depth + 1):
        new_frontier = []
        for w, j0 in frontier:
            k = spec.r_of_q[j0]
            for j in range(len(spec.q_cells)):
                if spec.r_of_q[j] != k:
                    continue
                need = spec.mu[k][j] - (1 if j == j0 else 0)
                for _ in range(need):
                    if next_id + n0 - 1 > max_vertices:
                        raise ResourceCapError(
                            f"truncation exceeds {max_vertices} vertices at "
                            f"stage {stage}")
                    anchor = spec.q_cells[j][0]
                    sigma = [0] * n0
                    for local in range(n0):
                        if local == anchor:
                            sigma[local] = w
                        else:
                            sigma[local] = next_id
                            vertex_depth.append(stage)
                            new_frontier.append((next_id, q_of_local[local]))
                            next_id += 1
                    for u, v in lam.edges:
                        a, b = sigma[u], sigma[v]
                        edges.append((a, b) if a < b else (b, a))
                    lobes.append(LobeRecord(len(lobes), stage, tuple(sigma)))
        frontier = new_frontier

    graph = make_graph(next_id, edges)
    return BuildResult(graph, lam, tuple(lobes), tuple(vertex_depth),
                       spec.depth)


@dataclass(frozen=True)
class InteriorReport:
    """Outcome of recounting the per-vertex membership requirements."""
    ok: bool
    violations: tuple[tuple, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_interior(result: BuildResult, spec: BuildSpec) -> InteriorReport:
    """Recount lobe memberships: interior vertices must meet every mu value,
    frontier vertices must lie in exactly one lobe."""
    if result.depth != spec.depth or result.lambda0 != spec.lambda0:
        raise BuildSpecError("result does not belong to this spec")
    n0 = spec.lambda0.vertex_count
    q_of_local = [0] * n0
    for j, cell in enumerate(spec.q_cells):
        for v in cell:
            q_of_local[v] = j
    memberships: list[list[int]] = [[] for _ in range(result.graph.vertex_count)]
    for rec in result.lobes:
        if len(rec.sigma) != n0:
            raise BuildSpecError("lobe registry does not match the seed lobe")
        for local, v in enumerate(rec.sigma):
            memberships[v].append(q_of_local[local])
    violations = []
    n_q = len(spec.q_cells)
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
        counts = [0] * n_q
        for j in mems:
            counts[j] += 1
        for j in range(n_q):
            want = spec.mu[k][j]
            if counts[j] != want:
                violations.append((v, "count", j, counts[j], want))
    return InteriorReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Symbolic classification of the infinite limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitReport:
    """Transitivity of the infinite limit graph, decided from the spec alone."""
    lobe_transitive: bool
    vertex_transitive: bool
    edge_transitive: bool
    edge_case: str | None
    arc_transitive: bool
    cell_totals: tuple[int, ...]
    m_constants: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "lobe_transitive": self.lobe_transitive,
            "vertex_transitive": self.vertex_transitive,
            "edge_transitive": self.edge_transitive,
            "edge_case": self.edge_case,
            "arc_transitive": self.arc_transitive,
            "cell_totals": list(self.cell_totals),
            "m_constants": list(self.m_constants) if self.m_constants else None,
        }


def classify_limit(spec: BuildSpec) -> LimitReport:
    """Classify the limit graph symbolically.

    The limit is lobe-transitive by construction.  Vertex transitivity holds
    iff for every orbit of the seed's full automorphism group, the number of
    lobes meeting a vertex inside that orbit is the same for every cell of
    the vertex partition.  Edge and arc transitivity go through the finite
    checkers' kernels, with the r-cells as vertex types.

    The limit is bipartite when Λ is and no q-cell meets both sides of Λ.
    Host side s then holds the r-cells on Λ's side s, or every r-cell when
    some r-cell meets both sides: then lobes occur in both orientations,
    and they align only if Λ has a side-swapping automorphism, since the
    host sides are the vertex orbits of an edge-transitive limit that is
    not vertex-transitive.  In fact no such limit meets 3c: a
    vertex-transitive Λ makes the host vertex-transitive once the cell
    totals agree, and the sides of any other edge-transitive Λ are its
    orbits, which no automorphism swaps.  The tests cross-check the verdicts
    against truncations; sufficiency is not proved.
    """
    lam = spec.lambda0
    aut = automorphism_generators(lam)
    aut_orbits = orbit_partition(aut, "vertices")
    o_index = aut_orbits.cell_index()
    n_k = len(spec.r_cells)
    totals = tuple(sum(spec.mu[k]) for k in range(n_k))

    def sums(label, count):
        """``[x][k]``: lobes meeting a cell-k vertex at a q-cell labelled x."""
        return [[sum(row[j] for j, y in enumerate(label) if y == x)
                 for row in spec.mu] for x in range(count)]

    o_of_q = [o_index[cell[0]] for cell in spec.q_cells]
    vertex_transitive = all(len(set(per_cell)) == 1
                            for per_cell in sums(o_of_q, aut_orbits.cell_count))

    lam_sides = bipartition(lam)
    side_of = {v: s for s, side in enumerate(lam_sides or ()) for v in side}
    q_side = [side_of.get(cell[0]) for cell in spec.q_cells]
    sides = side_sums = None
    mixed = False
    if lam_sides is not None and all(side_of[v] == q_side[j] for j, cell
                                     in enumerate(spec.q_cells) for v in cell):
        side_sums = sums(q_side, 2)  # positive where r-cell k meets side s
        mixed = any(a and b for a, b in zip(*side_sums))
        sides = [[k for k in range(n_k) if mixed or side_sums[s][k]]
                 for s in (0, 1)]

    def unaligned():
        swapped = {v: 1 - s for v, s in side_of.items()}
        if not mixed or _engine_certificate(lam, side_of) == \
                _engine_certificate(lam, swapped):
            return None
        return 1  # the limit's lobes have no ids: 1 stands for a reversed one

    edge = _edge_pattern(lam, aut, vertex_transitive, totals, sides,
                         side_sums, unaligned)
    arc = _arc_pattern(lam, aut, totals)
    return LimitReport(True, vertex_transitive, edge.holds, edge.case,
                       arc.holds, totals, edge.constants)


def spec_equivalent(s1: BuildSpec, s2: BuildSpec, compare_depth: int,
                    max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """Do the two specs grow isomorphic truncations at the given depth?

    This is truncation-level evidence: a necessary condition for the limits
    to coincide, checked at the tested depth only.  Equal truncations need
    no certificate; at depth 1 or more the others have connectivity 1, so
    ``canonical_certificate`` reads them off their block-cut trees.
    """
    r1 = build_truncation(with_depth(s1, compare_depth), max_vertices)
    r2 = build_truncation(with_depth(s2, compare_depth), max_vertices)
    if r1.graph == r2.graph:
        return True
    return canonical_certificate(r1.graph) == canonical_certificate(r2.graph)


# ---------------------------------------------------------------------------
# Local transitivity of a truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTransitivityReport:
    ok: bool
    witness: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def verify_local_transitivity(result: BuildResult,
                              radius: int) -> LocalTransitivityReport:
    """Check that all sufficiently interior lobes have isomorphic rooted
    lobe-balls of the given radius.

    Balls are compared by their rooted block-tree codes
    (``decomposition._lobe_tree_codes``, each lobe given as Λ and its
    ``sigma``), equal exactly for balls isomorphic root lobe to root lobe.
    """
    if radius > result.depth - 1:
        raise ValueError(
            f"radius {radius} too large for a depth-{result.depth} truncation")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    lobes_at: list[list[int]] = [[] for _ in range(result.graph.vertex_count)]
    for rec in result.lobes:
        for v in set(rec.sigma):
            lobes_at[v].append(rec.lobe_id)
    roots = [(rec.lobe_id, None, radius) for rec in result.lobes
             if rec.depth <= result.depth - radius]
    code, _ = _lobe_tree_codes([result.lambda0],
                               [(0, rec.sigma) for rec in result.lobes],
                               lobes_at, roots)
    for root in roots:
        if code[root] != code[roots[0]]:
            return LocalTransitivityReport(False, (roots[0][0], root[0]))
    return LocalTransitivityReport(True, None)
