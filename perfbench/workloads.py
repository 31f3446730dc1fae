"""The three benchmark workloads: seeded inputs, ops and output checks.

Each workload is built from the seed alone and exposes ``round(r)``, the
list of ops for round ``r``.  Every round holds each input item a fixed
number of times (once, except for the small fixtures of ``grow-deep``), so
a run of whole rounds weighs the items the same whatever its length.  The
ops of a round run in a seeded random order of their own, see
``Workload.interleave``.  An op
is a program call (timed) and a check of its result (not timed) that the
benchmark makes itself, without asking the engine under test.  Checks
return ``None`` when the output is right and a message otherwise.

Why each workload and input was chosen is written down in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPECS = Path(__file__).resolve().parent / "specs"
FIXTURES = ("chord5cyc", "clothesline_i", "clothesline_ii", "clothesline_iii",
            "clothesline_iv", "degenerate_k4", "k4_uniform", "kst_equal_3a",
            "kst_one_each", "kst_two_images", "petersen_balanced",
            "petersen_unbalanced")
QUARTET = ("clothesline_i", "clothesline_ii", "clothesline_iii",
           "clothesline_iv")


@dataclass
class Op:
    kind: str
    item: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def load_spec(lobes, name: str, depth: int | None = None):
    spec = lobes.validate_spec(json.loads((SPECS / f"{name}.json").read_text()))
    return spec if depth is None else lobes.with_depth(spec, depth)


def truncation(lobes, name: str, depth: int):
    return lobes.build_truncation(load_spec(lobes, name, depth)).graph


def relabel(lobes, g, rng: random.Random):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return lobes.make_graph(g.vertex_count,
                            [(perm[u], perm[v]) for u, v in g.edges])


def carries_edges(p, n: int, edges, onto: frozenset) -> bool:
    """Is ``p`` a permutation of 0..n-1 taking every edge into ``onto``?"""
    if sorted(p) != list(range(n)):
        return False
    return all((min(p[u], p[v]), max(p[u], p[v])) in onto for u, v in edges)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Shared bookkeeping: expected answers and first-seen references.

    ``work`` is a scratch directory inside the checkout for files that ops
    write.
    """

    def __init__(self, lobes, seed: int, work: Path):
        self.lobes = lobes
        self.work = work
        self.seed = seed
        self.rng = random.Random(seed)
        self.expect: dict = {}
        self.first: dict = {}

    def same_as_first(self, key, value) -> str | None:
        """Record ``value`` on first sight of ``key``; later it must match."""
        if key not in self.first:
            self.first[key] = value
            return None
        if self.first[key] != value:
            return f"{key}: the result differs from the first one"
        return None

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def interleave(self, chains: list[list[Op]], r: int) -> list[Op]:
        """The ops of round ``r`` in a seeded random order that keeps the
        order within each chain.

        The speed the shared machine gives the process drifts within a run.
        An op that ran at the same point of every round would sample that
        drift at a few fixed moments; a fresh order each round spreads its
        repetitions over the run.
        """
        slots = [i for i, chain in enumerate(chains) for _ in chain]
        random.Random(f"{self.seed}:{r}").shuffle(slots)
        chains = [iter(chain) for chain in chains]
        return [next(chains[i]) for i in slots]


class CanonLarge(Workload):
    """Certificates and isomorphism tests on depth-2 truncations."""

    GRAPHS = (("k4_uniform", 2), ("kst_one_each", 2), ("kst_two_images", 2))
    # Every engine run of a round gets a labeling of its own (four per round
    # and graph, plus a moved-edge copy), and a run of up to ten rounds never
    # reuses one: search cost depends on the labeling, so a figure averages
    # over as many labelings as the run holds.
    ROUNDS_BEFORE_REUSE = 10
    EQUIV_DEPTH = 3

    def __init__(self, lobes, seed: int, work: Path):
        super().__init__(lobes, seed, work)
        self.expect = {"equivalent": True, "moved": None}
        self.graphs = []
        for name, depth in self.GRAPHS:
            base = truncation(lobes, name, depth)
            labeled = [relabel(lobes, base, self.rng)
                       for _ in range(4 * self.ROUNDS_BEFORE_REUSE)]
            moved = [relabel(lobes, self._move_edge(base), self.rng)
                     for _ in range(self.ROUNDS_BEFORE_REUSE)]
            self.graphs.append((f"{name}_d{depth}", labeled, moved))
        self.rng.shuffle(self.graphs)
        quartet = {name: load_spec(lobes, name) for name in QUARTET}
        self.pairs = [(a, b, quartet[a], quartet[b])
                      for a, b in itertools.permutations(QUARTET, 2)]
        self.rng.shuffle(self.pairs)
        self.cert_owner: dict[bytes, str] = {}

    def _move_edge(self, g):
        """Move one edge so that the degree multiset changes.

        A changed degree multiset proves the copy non-isomorphic without
        asking the engine.
        """
        deg = [len(a) for a in g.adjacency]
        edges = list(g.edges)
        while True:
            u, v = self.rng.choice(edges)
            if self.rng.random() < 0.5:
                u, v = v, u
            w = self.rng.randrange(g.vertex_count)
            if w in (u, v) or g.has_edge(u, w) or deg[w] == deg[v] - 1:
                continue
            # v loses a neighbour and w gains one: the degree multiset
            # stays the same only when deg[w] == deg[v] - 1.
            edges.remove((min(u, v), max(u, v)))
            edges.append((min(u, w), max(u, w)))
            return self.lobes.make_graph(g.vertex_count, edges)

    def round(self, r: int) -> list[Op]:
        L = self.lobes
        k = r % self.ROUNDS_BEFORE_REUSE
        ops = []
        for name, labeled, moved in self.graphs:
            a, b, c, d = labeled[4 * k:4 * k + 4]
            m = moved[k]
            ops.append(Op("certificate", name,
                          lambda a=a: L.canonical_certificate(a),
                          lambda cert, name=name: self._check_cert(name, cert)))
            ops.append(Op("isomorphism", name,
                          lambda b=b, c=c: L.find_isomorphism(b, c),
                          lambda f, b=b, c=c: self._check_iso(b, c, f)))
            ops.append(Op("non_isomorphism", name,
                          lambda d=d, m=m: L.find_isomorphism(d, m),
                          lambda f: None if f == self.expect["moved"]
                          else "a graph with a moved edge was called isomorphic"))
        for a, b, s1, s2 in self.pairs:
            ops.append(Op("spec_equivalent", f"{a}~{b}",
                          lambda s1=s1, s2=s2: L.spec_equivalent(
                              s1, s2, self.EQUIV_DEPTH),
                          lambda same: None if same == self.expect["equivalent"]
                          else "clothesline specs differ at depth 3"))
        return self.interleave([[op] for op in ops], r)

    def _check_cert(self, name: str, cert) -> str | None:
        if not isinstance(cert, bytes):
            return f"certificate is {type(cert).__name__}, not bytes"
        owner = self.cert_owner.setdefault(cert, name)
        if owner != name:
            return f"{name} got the certificate of {owner}"
        return self.same_as_first(("certificate", name), cert)

    @staticmethod
    def _check_iso(g1, g2, f) -> str | None:
        if f is None:
            return "relabeled copies were called non-isomorphic"
        if not carries_edges(f, g1.vertex_count, g1.edges, frozenset(g2.edges)):
            return "the returned mapping does not carry edges onto edges"
        return None


class AnalyzeSmall(Workload):
    """What ``lobes classify``, ``lobes aut`` and ``lobes karc -k 2`` compute."""

    PIECES = (("path", 2), ("cycle", 3), ("cycle", 4), ("cycle", 5), ("k4",),
              ("complete_bipartite", 2, 3), ("complete_bipartite", 3, 3),
              ("chorded_5_cycle",), ("petersen",))
    CATALOG = {"petersen": (("petersen",), 120), "folkman": (("folkman",), 3840),
               "holt": (("holt",), 54),
               "k33": (("complete_bipartite", 3, 3), 72),
               "k44": (("complete_bipartite", 4, 4), 1152),
               "star8": (("star", 8), 40320), "c30": (("cycle", 30), 60)}
    TREES_PER_SIZE = 18  # trees of each size 2..8 pieces: 126 trees
    # Enough labelings that a run of up to ten rounds gives every op a
    # labeling of its own.
    LABELINGS = 20
    # Depth-1 truncations run twice a round, with two labelings, so that the
    # high-symmetry items fill the top tenth of the op times and op_p90_ms
    # falls among them.  petersen_balanced at depth 1 and k4_uniform at
    # depth 2 are left out: see NOTES.md.
    FIXTURE_ITEMS = [(name, 1, 2) for name in FIXTURES
                     if name != "petersen_balanced"] + [("clothesline_i", 2, 1)]

    def __init__(self, lobes, seed: int, work: Path):
        super().__init__(lobes, seed, work)
        self.expect = {"order": {k: order for k, (_, order)
                                 in self.CATALOG.items()}}
        items = []  # (name, graph, connectivity one by construction, copies)
        for i, pieces in enumerate(self._piece_lists()):
            items.append((f"tree{i}", self._block_tree(pieces), True, 1))
        for key, (args, _) in self.CATALOG.items():
            items.append((key, lobes.named_graph(*args), key == "star8", 1))
        for name, depth, copies in self.FIXTURE_ITEMS:
            items.append((f"{name}_d{depth}", truncation(lobes, name, depth),
                          True, copies))
        self.items = []
        for name, g, conn1, copies in items:
            labeled = [relabel(lobes, g, self.rng)
                       for _ in range(self.LABELINGS)]
            self.items.append((name, labeled, [frozenset(h.edges) for h in labeled],
                               conn1, copies))
        self.rng.shuffle(self.items)

    def _piece_lists(self):
        """Piece lists for the random block trees, stratified by size.

        Each size from 2 to 8 pieces occurs equally often, and the pieces are
        dealt from reshuffled decks holding every catalog piece once, so
        every seed draws each piece the same number of times: the seed moves
        which pieces meet and where, not how much work the trees hold.
        """
        deck: list = []
        for size in range(2, 9):
            for _ in range(self.TREES_PER_SIZE):
                pieces = []
                for _ in range(size):
                    if not deck:
                        deck = list(self.PIECES)
                        self.rng.shuffle(deck)
                    pieces.append(deck.pop())
                yield pieces

    def _block_tree(self, pieces):
        """Glue catalog pieces into a tree of blocks at random vertices."""
        n, edges = 0, []
        for args in pieces:
            piece = self.lobes.named_graph(*args)
            if n == 0:
                n, edges = piece.vertex_count, list(piece.edges)
                continue
            glue = self.rng.randrange(piece.vertex_count)
            at = self.rng.randrange(n)
            ids = {}
            for v in range(piece.vertex_count):
                if v == glue:
                    ids[v] = at
                else:
                    ids[v] = n
                    n += 1
            edges.extend((ids[u], ids[v]) for u, v in piece.edges)
        return self.lobes.make_graph(n, edges)

    def round(self, r: int) -> list[Op]:
        ops = []
        for name, labeled, edges, conn1, copies in self.items:
            for c in range(copies):
                k = (r * copies + c) % self.LABELINGS
                g, e = labeled[k], edges[k]
                item = f"{name}#{c}" if copies > 1 else name
                ops.append(Op("analyze", item, lambda g=g: self._analyze(g),
                              lambda res, name=name, g=g, e=e, c=conn1:
                              self._check(name, g, e, c, res)))
        return self.interleave([[op] for op in ops], r)

    def _analyze(self, g):
        L = self.lobes
        gens = L.automorphism_generators(g)
        order = L.group_order(gens)
        orbits = (L.orbit_partition(gens, "vertices"),
                  L.orbit_partition(gens, "edges", graph=g),
                  L.orbit_partition(gens, "arcs", graph=g))
        return gens, order, orbits, L.classify(g), L.k_arc_orbit_count(g, 2)

    def _check(self, name, g, edges, conn1, res) -> str | None:
        gens, order, orbits, report, karcs = res
        n = g.vertex_count
        if not all(carries_edges(p, n, edges, edges) for p in gens.generators):
            return "a generator is not an automorphism"
        arcs = set(edges) | {(v, u) for u, v in edges}
        for part, domain in zip(orbits, (set(range(n)), edges, arcs)):
            flat = [x for cell in part.cells for x in cell]
            if len(flat) != len(domain) or set(flat) != domain:
                return f"{part.domain} orbits do not partition the domain"
        if name in self.expect["order"] and order != self.expect["order"][name]:
            return f"|Aut| = {order}, expected {self.expect['order'][name]}"
        if (report.connectivity == "connectivity_one") != conn1:
            return f"connectivity reported as {report.connectivity}"
        if conn1 and report.consistent is not True:
            return "theorem and oracle verdicts disagree"
        o = report.oracle
        # m_constants follow the bipartition block holding the smallest
        # vertex id, so only their multiset is independent of the labeling.
        summary = (order, [sorted(len(c) for c in p.cells) for p in orbits],
                   (o.vertex_orbits, o.edge_orbits, o.arc_orbits, o.lobe_orbits),
                   report.theorem, report.edge_case,
                   sorted(report.m_constants or ()), report.tree_valences,
                   karcs)
        return self.same_as_first(("analysis", name), summary)


class GrowDeep(Workload):
    """Build every fixture at depth 3 through the CLI, read it back, verify."""

    DEPTH = 3
    RADIUS = 2
    # The fixtures of at most 425 vertices at depth 3 run SMALL_REPEATS
    # times a round.  Their ops take 0.2-100 ms and decide op_p50_ms; a
    # round takes about 8 s, so without repeats each of them would have
    # only 4 samples in a 30 s run, too few on a shared machine where one
    # sample can stray by 30%.  The repeats add about 1.3 s to a round.
    SMALL = frozenset(("clothesline_i", "clothesline_ii", "clothesline_iii",
                       "clothesline_iv", "degenerate_k4", "k4_uniform",
                       "kst_one_each", "kst_two_images"))
    SMALL_REPEATS = 4

    def __init__(self, lobes, seed: int, work: Path):
        super().__init__(lobes, seed, work)
        self.expect = {"exit": 0, "ok": True}
        self.fixtures = []
        for name in FIXTURES:
            spec = load_spec(lobes, name, self.DEPTH)
            spec_path = self.work / f"{name}.json"
            spec_path.write_text(json.dumps(lobes.spec_to_json_dict(spec)))
            self.fixtures.append((name, spec, str(spec_path),
                                  str(self.work / f"{name}.g")))
        self.rng.shuffle(self.fixtures)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lobes.cli.run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    def round(self, r: int) -> list[Op]:
        chains = []
        for name, spec, spec_path, graph_path in self.fixtures:
            repeats = self.SMALL_REPEATS if name in self.SMALL else 1
            chains += self._chains(name, spec, spec_path, graph_path) * repeats
        return self.interleave(chains, r)

    def _chains(self, name, spec, spec_path, graph_path) -> list[list[Op]]:
        L = self.lobes
        return [
            # decompose reads the file that build writes; a repeated build
            # writes the same bytes
            [Op("cli_build", name,
                lambda s=spec_path, g=graph_path:
                self._cli(["build", s, "-o", g]),
                lambda res, name=name, g=graph_path:
                self._check_build(name, g, res)),
             Op("cli_decompose", name,
                lambda g=graph_path: self._cli(["decompose", "--json", g]),
                lambda res, name=name, g=graph_path:
                self._check_decompose(name, g, res))],
            # Each verification builds its own truncation, so that no built
            # graph outlives its op and peak memory does not depend on the
            # order of the round.
            [Op("verify_interior", name,
                lambda spec=spec: L.verify_interior(L.build_truncation(spec),
                                                    spec),
                self._check_ok)],
            [Op("verify_local_transitivity", name,
                lambda spec=spec: L.verify_local_transitivity(
                    L.build_truncation(spec), self.RADIUS),
                self._check_ok)]]

    def _check_cli(self, key, res) -> str | None:
        code, out, err = res
        if code != self.expect["exit"]:
            return f"exit code {code}: {err.strip()}"
        return self.same_as_first(key, digest(out))

    def _check_build(self, name, graph_path, res) -> str | None:
        return (self._check_cli(("build stdout", name), res)
                or self.same_as_first(("build file", name),
                                      digest(Path(graph_path).read_text())))

    def _check_decompose(self, name, graph_path, res) -> str | None:
        error = self._check_cli(("decompose stdout", name), res)
        if error:
            return error
        doc = json.loads(res[1])
        sidecar = json.loads(Path(graph_path + ".json").read_text())
        if doc["lobe_count"] != len(sidecar["lobes"]):
            return (f"decompose found {doc['lobe_count']} lobes, the build "
                    f"registered {len(sidecar['lobes'])}")
        if len(set(doc["class_of"])) != 1:
            return "copies of one seed lobe fell into several classes"
        return None

    def _check_ok(self, report) -> str | None:
        if report.ok is not self.expect["ok"]:
            return f"verification failed: {report!r}"
        return None


WORKLOADS = {"canon-large": CanonLarge, "analyze-small": AnalyzeSmall,
             "grow-deep": GrowDeep}
