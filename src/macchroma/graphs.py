"""Labeled simple graphs on {1..n} and the attacking graphs of a partition.

The attacking graph of a shape joins reading-order labels of attacking cells;
the augmented attacking graph adds one edge per non-bottom-row cell, joining
it to the cell immediately below.  Everything downstream (chromatic sums,
sandwich enumeration, edge-subset expansions) works from this data.
"""

from __future__ import annotations

from .shapes import Diagram, check_partition


class IdentityViolation(ArithmeticError):
    """A theorem-level identity failed; signals a bug or an input outside scope."""


class UGraph:
    """Simple undirected graph: vertex set {1..n}, edges as sorted (u, v) pairs."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges=()):
        tidy = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            tidy.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(tidy))
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int):
        return self._adj[v]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def with_edges(self, extra) -> "UGraph":
        return UGraph(self.n, list(self.edges) + list(extra))

    def __eq__(self, other) -> bool:
        return isinstance(other, UGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, edges={list(self.edges)})"


class AttackingData:
    """Attacking graph, augmented attacking graph, and annotated down-edges.

    Each down-edge {u, down(u)} carries the (arm, leg) of its upper cell u,
    which is all any edge weight downstream ever needs.
    """

    __slots__ = ("mu", "g", "g_plus", "down_edges")

    def __init__(self, mu):
        mu = check_partition(mu)
        diagram = Diagram(mu)
        n = diagram.n
        g = UGraph(n, diagram.attacking_pairs())
        down_edges = []
        for u in range(1, n + 1):
            v = diagram.down_by_label.get(u)
            if v is not None:
                down_edges.append(((u, v), diagram.arm_by_label[u], diagram.leg_by_label[u]))
        g_plus = g.with_edges(edge for edge, _, _ in down_edges)
        if not g.edge_set() <= g_plus.edge_set():
            raise IdentityViolation(f"attacking graph of {mu} is not inside its augmentation")
        if len(g_plus.edges) - len(g.edges) != n - (mu[0] if mu else 0):
            raise IdentityViolation(f"augmented attacking graph of {mu} lacks a down-edge")
        if not (is_claw_free(g) and is_claw_free(g_plus)):
            raise IdentityViolation(f"attacking graphs of {mu} must be claw-free")
        self.mu = mu
        self.g = g
        self.g_plus = g_plus
        self.down_edges = tuple(down_edges)


def attacking_data(mu) -> AttackingData:
    return AttackingData(mu)


def sandwich_graphs(data: AttackingData):
    """All graphs H with G subset H subset G+, by ascending down-edge bitmask."""
    edges = [edge for edge, _, _ in data.down_edges]
    k = len(edges)
    for mask in range(1 << k):
        extra = [edges[i] for i in range(k) if mask >> i & 1]
        yield data.g.with_edges(extra)


def component_partition(h: UGraph):
    """Sorted sizes of the connected components (isolated vertices count)."""
    seen = set()
    sizes = []
    for start in range(1, h.n + 1):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in h.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def proper_colorings(h: UGraph, palette: int):
    """Yield (coloring, ascent count) over proper colorings with k colors.

    Backtracks over vertices 1..n, colors 1..k ascending, so the order is
    deterministic.  An ascent is an edge {u,v} with u < v and color(u) <
    color(v).
    """
    if palette < 1:
        raise ValueError("palette must be at least 1")
    n = h.n
    prev_neighbors = [[]] + [sorted(w for w in h.neighbors(v) if w < v) for v in range(1, n + 1)]
    colors = [0] * (n + 1)

    def assign(v, asc):
        if v > n:
            yield tuple(colors[1:]), asc
            return
        for c in range(1, palette + 1):
            rise = 0
            ok = True
            for u in prev_neighbors[v]:
                if colors[u] == c:
                    ok = False
                    break
                if colors[u] < c:
                    rise += 1
            if not ok:
                continue
            colors[v] = c
            yield from assign(v + 1, asc + rise)
        colors[v] = 0

    yield from assign(1, 0)


def all_colorings(h: UGraph, palette: int):
    """Yield (coloring, ascent count) over all colorings, proper or not."""
    if palette < 1:
        raise ValueError("palette must be at least 1")
    n = h.n
    prev_neighbors = [[]] + [sorted(w for w in h.neighbors(v) if w < v) for v in range(1, n + 1)]
    colors = [0] * (n + 1)

    def assign(v, asc):
        if v > n:
            yield tuple(colors[1:]), asc
            return
        for c in range(1, palette + 1):
            rise = sum(1 for u in prev_neighbors[v] if colors[u] < c)
            colors[v] = c
            yield from assign(v + 1, asc + rise)
        colors[v] = 0

    yield from assign(1, 0)


def is_claw_free(h: UGraph) -> bool:
    """True when no vertex has three pairwise non-adjacent neighbors."""
    for v in range(1, h.n + 1):
        nbrs = sorted(h.neighbors(v))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if h.has_edge(nbrs[i], nbrs[j]):
                    continue
                for k in range(j + 1, len(nbrs)):
                    if not h.has_edge(nbrs[i], nbrs[k]) and not h.has_edge(nbrs[j], nbrs[k]):
                        return False
    return True
