"""Finite graphs with the graph metric.

Vertices are dense integers 0..n-1.  Edge weights double as Heisenberg
couplings J_xy or exclusion-process rates r_xy depending on the model that
reads the graph.  Distances are shortest-path edge counts (minimum site
spacing a = 1); a disconnected pair reports ``math.inf``, never a large
number.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .hilbert import check_spin

INF = math.inf


@dataclass(frozen=True)
class SpinGraph:
    """A weighted graph with a spin magnitude attached to every vertex."""

    n_vertices: int
    edges: tuple  # tuple of (x, y, weight) with x < y
    spins: tuple  # spin magnitude s_x per vertex

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        canon = []
        for (x, y, w) in self.edges:
            if not (0 <= x < self.n_vertices and 0 <= y < self.n_vertices):
                raise ValueError(f"edge ({x},{y}) leaves the vertex set")
            if x == y:
                raise ValueError(f"self-loop at vertex {x}")
            pair = (min(x, y), max(x, y))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            if not math.isfinite(w := float(w)):
                raise ValueError(f"edge {pair} has weight {w}, not a finite number")
            canon.append((pair[0], pair[1], w))
        object.__setattr__(self, "edges", tuple(canon))
        if len(self.spins) != self.n_vertices:
            raise ValueError("one spin magnitude per vertex required")
        object.__setattr__(self, "spins", tuple(check_spin(s) for s in self.spins))

    @property
    def vertices(self):
        return range(self.n_vertices)

    def adjacency(self):
        adj = [[] for _ in range(self.n_vertices)]
        for (x, y, w) in self.edges:
            adj[x].append(y)
            adj[y].append(x)
        return adj


def build_graph(n, edge_list, spins=None, default_spin=0.5) -> SpinGraph:
    """Arbitrary edge list; ``spins`` maps vertex -> magnitude (default 1/2)."""
    s = [default_spin] * n
    for x, sx in (spins or {}).items():
        if not 0 <= x < n:
            raise ValueError(f"spin for vertex {x} outside 0..{n - 1}")
        s[x] = sx
    return SpinGraph(n, tuple(edge_list), tuple(s))


def path_graph(L, weight=1.0, spin=0.5) -> SpinGraph:
    return build_graph(L, [(x, x + 1, weight) for x in range(L - 1)], default_spin=spin)


def ring_graph(L, weight=1.0, spin=0.5) -> SpinGraph:
    if L < 3:
        raise ValueError("a ring needs at least 3 vertices")
    return build_graph(L, [(x, (x + 1) % L, weight) for x in range(L)], default_spin=spin)


def complete_graph(n, weight=1.0, spin=0.5) -> SpinGraph:
    edges = [(x, y, weight) for x in range(n) for y in range(x + 1, n)]
    return build_graph(n, edges, default_spin=spin)


def star_graph(n_leaves, weight=1.0, spin=0.5) -> SpinGraph:
    return build_graph(n_leaves + 1, [(0, y, weight) for y in range(1, n_leaves + 1)],
                       default_spin=spin)


def _check_vertex(g: SpinGraph, x):
    if not (isinstance(x, int) and 0 <= x < g.n_vertices):
        raise ValueError(f"unknown vertex {x}")


def distances_from(g: SpinGraph, x) -> list:
    """BFS distances from x; ``inf`` for unreachable vertices."""
    _check_vertex(g, x)
    dist = [INF] * g.n_vertices
    dist[x] = 0
    adj = g.adjacency()
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if math.isinf(dist[u]):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def graph_distance(g: SpinGraph, x, y):
    """Shortest-path edge count; 0 iff x == y; ``inf`` if disconnected."""
    _check_vertex(g, y)
    return distances_from(g, x)[y]


def diameter(g: SpinGraph, X):
    """Max pairwise distance within the nonempty vertex set X."""
    X = sorted(set(X))
    if not X:
        raise ValueError("diameter of the empty set is undefined")
    for x in X:
        _check_vertex(g, x)
    best = 0
    for x in X:
        dist = distances_from(g, x)
        for y in X:
            if dist[y] > best:
                best = dist[y]
    return best


def set_distance(g: SpinGraph, x, Y):
    """min over y in Y of d(x, y); Y must be nonempty."""
    Y = sorted(set(Y))
    if not Y:
        raise ValueError("distance to the empty set is undefined")
    dist = distances_from(g, x)
    return min(dist[y] for y in Y)


def is_connected(g: SpinGraph) -> bool:
    return all(not math.isinf(d) for d in distances_from(g, 0))


def parse_graph_file(text: str) -> SpinGraph:
    """Parse the plain-text graph format.

    Line 1: ``vertices N``; then ``x y weight`` per edge; optional
    ``spin x s`` lines (spins default to 1/2, s may be a fraction like 3/2).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("vertices"):
        raise ValueError("graph file must start with a 'vertices N' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad header line: {lines[0]!r}") from exc
    edges = []
    spins = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "spin":
            if len(parts) != 3:
                raise ValueError(f"bad spin line: {ln!r}")
            try:
                spins[int(parts[1])] = float(Fraction(parts[2]))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"bad spin line: {ln!r}") from exc
        else:
            if len(parts) != 3:
                raise ValueError(f"bad edge line: {ln!r}")
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return build_graph(n, edges, spins=spins)


def load_graph(path) -> SpinGraph:
    with open(path) as fh:
        return parse_graph_file(fh.read())
