"""Immutable finite simple graphs over dense 0-based vertex ids.

The text format used by :func:`parse_graph` / :func:`serialize_graph` is
documented in docs/formats.md and is bit-exact: serializing a parsed graph
always yields the canonical form (header line, then edges sorted as pairs).
:func:`parse_graph` reads a text that is exactly a canonical form, as
:func:`serialize_graph` writes it, in one pass of builtins over the whole
text; any other text goes through the line parser, which gives every error
its line number.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import eq, lt


class GraphError(ValueError):
    """Malformed graph construction or text input."""


class Graph:
    """A finite simple undirected graph on vertices 0..vertex_count-1.

    Instances are immutable after construction and safe to share between
    threads.  ``edges`` is a sorted tuple of ``(u, v)`` pairs with ``u < v``;
    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``.  Adjacency
    and the edge set behind :meth:`has_edge` are built from ``edges`` on
    first use; a fill is idempotent, so concurrent first uses are harmless.
    Use :func:`make_graph` to build one with validation.
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "_edge_set")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __getattr__(self, name):
        # reached only while a slot is empty: fill it, and later reads of
        # it are plain slot reads
        if name == "adjacency":
            # edges are sorted, so every neighbour list is filled in order:
            # the smaller neighbours u of v (edges (u, v)) come before v's
            # own edges (v, w)
            nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            value = tuple(map(tuple, nbrs))
        elif name == "_edge_set":
            value = frozenset(self.edges)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set if u < v else (v, u) in self._edge_set

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def make_graph(vertex_count: int, edges) -> Graph:
    """Build a :class:`Graph`, normalizing and deduplicating ``edges``.

    The result is independent of the input edge order.  Raises
    :class:`GraphError` for vertex ids or a vertex count that are not
    integers (``bool`` included), for self-loops and for out-of-range
    endpoints.
    """
    if type(vertex_count) is not int:
        raise GraphError(
            f"vertex_count must be an integer, got {vertex_count!r}")
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be nonnegative, got {vertex_count}")
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    try:
        pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        pairs.sort()
        valid = True
        if pairs:
            # sorted pairs: the smallest id is the first u, and no u exceeds
            # its v
            us, vs = zip(*pairs)
            valid = ({int}.issuperset(map(type, us))
                     and {int}.issuperset(map(type, vs))
                     and us[0] >= 0 and max(vs) < vertex_count
                     and not any(map(eq, us, vs)))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        _first_bad_edge(vertex_count, edges)
    if any(map(eq, pairs, islice(pairs, 1, None))):
        pairs = list(dict.fromkeys(pairs))
    return Graph(vertex_count, tuple(pairs))


def _first_bad_edge(vertex_count: int, edges) -> None:
    """Raise the error of the first edge :func:`make_graph` must refuse."""
    for pair in edges:
        u, v = pair
        for x in (u, v):
            if type(x) is not int:
                raise GraphError(f"vertex id {x!r} is not an integer")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(
                f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")


def _sorted_graph(vertex_count: int, edges) -> Graph:
    """A :class:`Graph` from edges already valid and strictly increasing."""
    return Graph(vertex_count, tuple(edges))


def relabel_graph(g: Graph, perm) -> Graph:
    """Return the graph with vertex v renamed to perm[v]."""
    return make_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` with dense relabeling.

    Returns ``(sub, originals)`` where ``originals[i]`` is the original id of
    the subgraph vertex ``i`` (originals are sorted ascending).
    """
    originals = tuple(sorted(set(vertices)))
    local = {v: i for i, v in enumerate(originals)}
    # a monotone relabeling of sorted edges: still strictly increasing
    edges = [(local[u], local[v]) for u, v in g.edges
             if u in local and v in local]
    return _sorted_graph(len(originals), edges), originals


def is_connected(g: Graph) -> bool:
    """True for graphs where every vertex is reachable from vertex 0.

    The empty graph counts as connected.
    """
    n = g.vertex_count
    if n <= 1:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The bipartition classes of a connected bipartite graph, else None.

    The class containing the smallest vertex id comes first.
    """
    n = g.vertex_count
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = tuple(v for v in range(n) if color[v] == 0)
    side1 = tuple(v for v in range(n) if color[v] == 1)
    return side0, side1


def parse_graph(text: str) -> Graph:
    """Parse the graph text format (see docs/formats.md).

    Raises :class:`GraphError` with a line number on syntax errors and on
    header/edge-count mismatches.
    """
    tokens = text.split()
    if len(tokens) % 2 == 0 and tokens:
        try:
            nums = tuple(map(int, tokens))
        except ValueError:
            return _parse_lines(text)
        n, m = nums[0], nums[1]
        us, vs = nums[2::2], nums[3::2]
        edges = list(zip(us, vs))
        # strictly increasing pairs with u < v: sorted, no duplicates, and
        # the smallest id is the first u
        if (n >= 0 and m == len(edges)
                and (not edges or (us[0] >= 0 and max(vs) < n
                                   and all(map(lt, us, vs))
                                   and all(map(lt, edges,
                                               islice(edges, 1, None)))))
                and text == _pair_lines(nums)):
            return _sorted_graph(n, edges)
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """:func:`parse_graph` line by line, for any text."""
    header = None
    edges: list[tuple[int, int]] = []
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: expected two integers, got {raw!r}")
        if header is None:
            header = (a, b)
            n, m = a, b
            if n < 0 or m < 0:
                raise GraphError(f"line {lineno}: negative header values")
            continue
        if len(edges) >= m:
            raise GraphError(f"line {lineno}: more edge lines than the header's {m}")
        if not (0 <= a < b < n):
            raise GraphError(
                f"line {lineno}: edge must satisfy 0 <= u < v < {n}, got {a} {b}")
        edges.append((a, b))
    if header is None:
        raise GraphError("empty input: missing 'n m' header line")
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges but {len(edges)} were given")
    g = make_graph(n, edges)
    if g.edge_count != m:
        raise GraphError("duplicate edge lines in input")
    return g


def serialize_graph(g: Graph) -> str:
    """Canonical text form: header, then edge lines sorted as (u, v) pairs."""
    return _pair_lines((g.vertex_count, g.edge_count,
                        *chain.from_iterable(g.edges)))


def _pair_lines(nums: tuple[int, ...]) -> str:
    """One line ``"a b"`` per successive pair of ``nums``, in one format."""
    return "%d %d\n" * (len(nums) // 2) % nums
