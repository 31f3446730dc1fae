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
from itertools import chain, compress, cycle, repeat
from operator import add, mul, not_
from typing import NamedTuple

from .decomposition import _lobe_tree_codes, connectivity_class
from .graph import (Graph, GraphError, _sorted_graph, bipartition,
                    make_graph)
from .symmetry import (GeneratorSet, _aut_group, _engine_certificate,
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


class LobeRecord(NamedTuple):
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
        _require_ints([lam_doc["n"]], "n")
        lambda0 = make_graph(lam_doc["n"], [tuple(e) for e in lam_doc["edges"]])
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
            for p in h_doc:
                _require_ints(p, "image")
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
        _require_ints(cell, "r_partition vertex")
        cell = tuple(sorted(cell))
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
            k = entry["k"]
            _require_ints([k], "mu cell index")
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


def _require_ints(values, what: str) -> None:
    """Refuse any value that is not a JSON integer (bools included)."""
    for v in values:
        if type(v) is not int:
            raise BuildSpecError(f"{what} {v!r} is not an integer")


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

    # A copy attached at q-cell j carries its anchor q_cells[j][0] to the
    # frontier vertex w and the other seed vertices, in ascending order, to
    # fresh ids; its id list is [w, fresh...], and ``pos[x]`` is seed vertex
    # x's position in it.  Ids increase with position (w is older than any
    # fresh id), so each seed edge becomes a position pair (p, q) with p < q
    # and the copy's edge (ids[p], ids[q]) is already normalized.
    plans = []
    for cell in spec.q_cells:
        anchor = cell[0]
        pos = [x + 1 if x < anchor else x for x in range(n0)]
        pos[anchor] = 0
        ps, qs = zip(*(sorted((pos[u], pos[v])) for u, v in lam.edges))
        plans.append((pos, ps, qs,
                      [q_of_local[x] for x in range(n0) if x != anchor]))
    # demand[j0]: (plan, copies) for a frontier vertex at q-cell j0
    demand = []
    for j0, k in enumerate(spec.r_of_q):
        demand.append([(plans[j], need) for j in range(len(spec.q_cells))
                       if spec.r_of_q[j] == k
                       and (need := spec.mu[k][j] - (j == j0)) > 0])
    copies_at = [sum(need for _, need in row) for row in demand]

    edges = list(lam.edges)
    lobes = [LobeRecord(0, 0, tuple(range(n0)))]
    vertex_depth = [0] * n0
    next_id = n0
    frontier = range(n0)
    frontier_cells = q_of_local

    for stage in range(1, spec.depth + 1):
        # the stage's copies take fresh ids in one block, in creation order
        count = sum(map(copies_at.__getitem__, frontier_cells)) * (n0 - 1)
        if next_id + count > max_vertices:
            raise ResourceCapError(
                f"truncation exceeds {max_vertices} vertices at stage {stage}")
        new_frontier = range(next_id, next_id + count)
        new_cells: list[int] = []
        for w, j0 in zip(frontier, frontier_cells):
            for (pos, ps, qs, cells), need in demand[j0]:
                for _ in range(need):
                    ids = [w, *range(next_id, next_id + n0 - 1)]
                    at = ids.__getitem__
                    edges += zip(map(at, ps), map(at, qs))
                    lobes.append(LobeRecord(len(lobes), stage,
                                            tuple(map(at, pos))))
                    new_cells += cells
                    next_id += n0 - 1
        vertex_depth += [stage] * count
        frontier, frontier_cells = new_frontier, new_cells

    # every copy's edges meet one of its fresh vertices, so no edge repeats
    edges.sort()
    return BuildResult(_sorted_graph(next_id, edges), lam, tuple(lobes),
                       tuple(vertex_depth), spec.depth)


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
    sigmas = [rec.sigma for rec in result.lobes]
    if any(len(sigma) != n0 for sigma in sigmas):
        raise BuildSpecError("lobe registry does not match the seed lobe")
    n_q = len(spec.q_cells)
    # counts[v * n_q + j], then rows[v][j]: the lobes holding vertex v at a
    # position in q-cell j
    counts = [0] * (result.graph.vertex_count * n_q)
    for key in map(add, map(mul, chain.from_iterable(sigmas), repeat(n_q)),
                   cycle(q_of_local)):
        counts[key] += 1
    rows = list(zip(*[iter(counts)] * n_q))
    frontier = [d >= result.depth for d in result.vertex_depth]
    # a frontier row has one membership; an interior row is the mu row of
    # the one r-cell its memberships lie in
    frontier_ok = {tuple(int(i == j) for j in range(n_q)) for i in range(n_q)}
    interior_ok = {row for k, row in enumerate(spec.mu)
                   if {spec.r_of_q[j] for j, c in enumerate(row) if c} == {k}}
    if frontier_ok.issuperset(compress(rows, frontier)) and \
            interior_ok.issuperset(compress(rows, map(not_, frontier))):
        return InteriorReport(True, ())
    violations = []
    for v, row in enumerate(rows):
        if frontier[v]:
            if sum(row) != 1:
                violations.append((v, "frontier", sum(row)))
            continue
        ks = sorted({spec.r_of_q[j] for j, c in enumerate(row) if c})
        if len(ks) != 1:
            violations.append((v, "mixed_cells", ks))
            continue
        violations += [(v, "count", j, c, want) for j, (c, want)
                       in enumerate(zip(row, spec.mu[ks[0]])) if c != want]
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
    aut = _aut_group(lam)
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
        for v in rec.sigma:  # an embedding: no vertex twice
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
