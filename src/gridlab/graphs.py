"""Refutation machinery for edge-colored sparse graphs.

A host graph is vertex-colored greedily along a minimum-degree-last order
(at most 6 colors on 5-degenerate inputs), its edges fall into bipartite
classes keyed by unordered color pairs, and a non-bipartite pattern then
admits no monochromatic induced copy. Planarity is the caller's assertion;
everything here only needs bounded degeneracy.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ContractViolation, Record
from .poset import induced_embeddings, iter_bits as _bits

INDUCED_SEARCH_GUARD = 20_000_000


class Graph:
    """Immutable simple graph; ``adj[v]`` is a neighbor bitmask."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ContractViolation(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u}, {v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in range(u + 1, self.n) if self.has_edge(u, v)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degeneracy(self) -> int:
        """Max over the removal order of the minimum degree at removal time."""
        return _min_degree_removal(self)[1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges())})"


def _min_degree_removal(g: Graph) -> tuple[list[int], int]:
    """Vertices removed one at a time at minimum remaining degree (lowest index
    on ties), and the largest such degree, which is the degeneracy."""
    alive = (1 << g.n) - 1
    removal = []
    worst = 0
    for _ in range(g.n):
        best_v, best_d = -1, g.n + 1
        for v in _bits(alive):
            d = (g.adj[v] & alive).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        removal.append(best_v)
        worst = max(worst, best_d)
        alive &= ~(1 << best_v)
    return removal, worst


def degeneracy_coloring(g: Graph) -> list[int]:
    """Greedy colors along a minimum-degree-last order, 0-based.

    Uses at most degeneracy + 1 colors, so at most 6 on the 5-degenerate
    hosts the refutation argument needs.
    """
    removal = _min_degree_removal(g)[0]
    colors = [-1] * g.n
    for v in reversed(removal):
        neighbor_colors = {colors[u] for u in _bits(g.adj[v]) if colors[u] >= 0}
        c = 0
        while c in neighbor_colors:
            c += 1
        colors[v] = c
    return colors


def is_proper_coloring(g: Graph, colors: Sequence[int]) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges())


class EdgeColoring(Record):
    """Edges keyed to colors; classes recoverable as subgraphs."""

    n: int
    colors: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, n: int, colors: tuple[tuple[tuple[int, int], int], ...]):
        Record.__init__(self, n, colors)
        object.__setattr__(self, "_index", dict(colors))

    def color_of(self, u: int, v: int) -> int:
        try:
            return self._index[min(u, v), max(u, v)]  # type: ignore[attr-defined]
        except KeyError:
            raise ContractViolation(f"({u}, {v}) is not an edge") from None

    def color_set(self) -> list[int]:
        return sorted({c for _, c in self.colors})

    def class_graph(self, color: int) -> Graph:
        return Graph(self.n, [e for e, c in self.colors if c == color])


def bipartite_edge_decomposition(g: Graph, vertex_colors: Sequence[int]) -> EdgeColoring:
    """Color edge {u, v} by the unordered pair of endpoint colors.

    Each class joins two vertex-color groups only, hence is bipartite. An
    improper vertex coloring is rejected.
    """
    if len(vertex_colors) != g.n:
        raise ContractViolation("vertex coloring length mismatch")
    if not is_proper_coloring(g, vertex_colors):
        raise ContractViolation("vertex coloring is not proper")
    pair_ids: dict[tuple[int, int], int] = {}
    assignment = []
    for u, v in g.edges():
        pair = (min(vertex_colors[u], vertex_colors[v]),
                max(vertex_colors[u], vertex_colors[v]))
        if pair not in pair_ids:
            pair_ids[pair] = len(pair_ids)
        assignment.append(((u, v), pair_ids[pair]))
    return EdgeColoring(g.n, tuple(assignment))


def is_bipartite(g: Graph) -> tuple[bool, Optional[list[int]]]:
    """Layered 2-coloring; on failure returns an odd cycle as the certificate."""
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in _bits(g.adj[u]):
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u]:
                    cycle = _odd_cycle(u, v, parent)
                    return False, cycle
    return True, None


def _odd_cycle(u: int, v: int, parent: Sequence[int]) -> list[int]:
    path_u, path_v = [u], [v]
    seen = {u: 0}
    x = u
    while parent[x] != -1:
        x = parent[x]
        seen[x] = len(path_u)
        path_u.append(x)
    x = v
    while x not in seen:
        x = parent[x]
        path_v.append(x)
    meet = x
    cycle = path_u[:seen[meet] + 1] + list(reversed(path_v[:path_v.index(meet)]))
    if len(cycle) % 2 == 0:
        raise ContractViolation("odd-cycle reconstruction produced an even cycle")
    return cycle


def find_mono_induced_subgraph(host: Graph, pattern: Graph, ec: EdgeColoring,
                               guard_nodes: int = INDUCED_SEARCH_GUARD
                               ) -> Optional[tuple[int, tuple[int, ...]]]:
    """An induced copy of ``pattern`` in ``host`` with all edges one class.

    Returns (color, image) or None after scanning every class exhaustively.
    The copy is induced in the host: pattern non-edges must be host non-edges
    of any color. ``guard_nodes`` bounds the kernel nodes of all classes
    together.
    """
    for (u, v), _ in ec.colors:
        if not host.has_edge(u, v):
            raise ContractViolation("edge coloring does not describe the host")
    if pattern.n > host.n:
        return None
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    full = (1 << host.n) - 1
    non_adj = [full ^ row for row in host.adj]
    spent = 0
    for color in ec.color_set():
        class_adj = ec.class_graph(color).adj
        checks = [[(u, class_adj if pattern.has_edge(v, u) else non_adj) for u in order[:s]]
                  for s, v in enumerate(order)]
        search = induced_embeddings(order, checks, [full] * pattern.n, guard_nodes - spent,
                                    "induced-subgraph search exceeded its guard")
        try:
            return color, next(search)
        except StopIteration as done:
            spent += done.value
    return None


def random_degenerate_graph(n: int, max_back_degree: int, rng) -> Graph:
    """Incremental host generator: each new vertex picks at most
    ``max_back_degree`` earlier neighbors, bounding the degeneracy."""
    edges = []
    for v in range(1, n):
        k = rng.randint(0, min(max_back_degree, v))
        for u in rng.sample(range(v), k):
            edges.append((u, v))
    return Graph(n, edges)
