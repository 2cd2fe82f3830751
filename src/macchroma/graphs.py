"""Labeled simple graphs on {1..n} and the attacking graphs of a partition.

The attacking graph of a shape joins reading-order labels of attacking cells;
the augmented attacking graph adds one edge per non-bottom-row cell, joining
it to the cell immediately below.  Everything downstream (chromatic sums,
sandwich enumeration, edge-subset expansions) works from this data.

``colorings`` is the one coloring enumerator: the non-attacking fillings
(``macdonald.non_attacking_fillings``) are the proper colorings of the
attacking graph with n colors, and ``chromatic.coloring_census`` reads it.
It is an iterative backtracker that yields the colorings in lexicographic
order of the coloring tuple, each with its ascent count; that order is
part of its contract, and its tests compare ordered lists.
"""

from __future__ import annotations

from functools import lru_cache

from .shapes import IdentityViolation, check_partition, conjugate


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

    Cells (row, col) are 1-based in the French convention: row 1 is the
    bottom row and holds the largest part.  Labels 1..n follow reading
    order, top row first and each row left to right.  Two cells attack when
    they share a row, or sit in adjacent rows with the upper (earlier-read)
    cell strictly to the right of the lower one.

    Each down-edge {u, down(u)} carries the (arm, leg) of its upper cell u,
    which is all any edge weight downstream ever needs.  The arm counts the
    cells strictly to the right of u in its row, and the leg the cells
    strictly above u in its *column*.  (Some sources phrase the leg as
    "above in its row", which reads as a typo; the column count is what the
    arm/leg picture and every downstream identity require.)

    ``added`` holds the down-edge pairs, the edges of G+ outside G, in
    ``down_edges`` order: bit i of a sandwich mask adds ``added[i]``.
    """

    __slots__ = ("mu", "g", "g_plus", "down_edges", "added")

    def __init__(self, mu):
        mu = check_partition(mu)
        n = sum(mu)
        cols = conjugate(mu)
        cells = [(r, c) for r in range(len(mu), 0, -1) for c in range(1, mu[r - 1] + 1)]
        label = {cell: v for v, cell in enumerate(cells, start=1)}
        g = UGraph(n, [(u, v) for u, (ru, cu) in enumerate(cells, start=1)
                       for v, (rv, cv) in enumerate(cells[u:], start=u + 1)
                       if ru == rv or (ru == rv + 1 and cu > cv)])
        down_edges = [((u, label[r - 1, c]), mu[r - 1] - c, cols[c - 1] - r)
                      for u, (r, c) in enumerate(cells, start=1) if r > 1]
        added = tuple(edge for edge, _, _ in down_edges)
        g_plus = g.with_edges(added)
        if not g.edge_set() <= g_plus.edge_set():
            raise IdentityViolation(f"attacking graph of {mu} is not inside its augmentation")
        if len(g_plus.edges) - len(g.edges) != n - max(mu, default=0):
            raise IdentityViolation(f"augmented attacking graph of {mu} lacks a down-edge")
        try:
            hessenberg(g)
            hessenberg(g_plus)
        except ValueError as err:
            raise IdentityViolation(f"attacking graphs of {mu} must be natural unit interval") from err
        self.mu = mu
        self.g = g
        self.g_plus = g_plus
        self.down_edges = tuple(down_edges)
        self.added = added

    def sandwich(self, mask: int) -> UGraph:
        """G plus the added edges whose bits are set in mask (0 <= mask < 2^k)."""
        if not 0 <= mask < 1 << len(self.added):
            raise ValueError(f"mask {mask} is not a set of the {len(self.added)} added edges")
        return self.g.with_edges(edge for i, edge in enumerate(self.added) if mask >> i & 1)


@lru_cache(maxsize=128)
def attacking_data(mu) -> AttackingData:
    """The attacking data of mu (a tuple), shared by every route and suite
    that asks for the same partition; the cache holds the last 128."""
    return AttackingData(mu)


def sandwich_graphs(data: AttackingData):
    """All graphs H with G subset H subset G+, by ascending down-edge bitmask."""
    for mask in range(1 << len(data.added)):
        yield data.sandwich(mask)


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


def colorings(h: UGraph, palette: int, proper: bool = True):
    """Yield (coloring, ascent count) over the colorings of h with colors
    1..palette, skipping those with a monochromatic edge when ``proper``.

    An iterative backtracker over vertices 1..n, colors ascending, so the
    order is lexicographic in the coloring tuple.  Each vertex below the
    last keeps its color and the ascents of the vertices before it, and a
    vertex resumes from its color plus one when the search returns to it.
    The last vertex takes every admissible color in one loop.  An ascent is
    an edge {u,v} with u < v and color(u) < color(v).  The empty graph has
    one coloring, the empty one, with any palette.
    """
    if palette < 1 <= h.n:
        raise ValueError("palette must be at least 1")
    n = h.n
    if n == 0:
        yield (), 0
        return
    last = n - 1  # vertex v is index v - 1 from here on
    lower = [tuple(w - 1 for w in sorted(h.neighbors(v)) if w < v) for v in range(1, n + 1)]
    colors = [0] * n
    ascents = [0] * n  # ascents[i]: ascents among the vertices before i
    tally = [0] * (palette + 1)  # tally[c]: lower neighbours of the last vertex colored c
    i = 0
    while i >= 0:
        if i == last:
            head = tuple(colors[:last])
            for u in lower[last]:
                tally[colors[u]] += 1
            rise = ascents[last]
            for c in range(1, palette + 1):
                rise += tally[c - 1]  # the lower neighbours colored below c
                if not (proper and tally[c]):
                    yield (*head, c), rise
            for u in lower[last]:
                tally[colors[u]] = 0
            i -= 1
            continue
        for c in range(colors[i] + 1, palette + 1):
            rise = 0
            for u in lower[i]:
                if colors[u] < c:
                    rise += 1
                elif proper and colors[u] == c:
                    break
            else:
                colors[i] = c
                ascents[i + 1] = ascents[i] + rise
                i += 1
                break
        else:
            colors[i] = 0
            i -= 1


def hessenberg(h: UGraph) -> tuple:
    """(h(1), ..., h(n)) for a natural unit interval graph in its labels: i
    is joined to exactly i+1, ..., h(i) above it, and h weakly increases.
    Any other graph raises ``ValueError``."""
    tops = tuple(max([v, *(w for w in h.neighbors(v) if w > v)]) for v in range(1, h.n + 1))
    # every edge {i < j} has j <= h(i), so the edges are all of those pairs iff they are as many
    if list(tops) != sorted(tops) or len(h.edges) != sum(top - v for v, top in enumerate(tops, start=1)):
        raise ValueError(f"{h} is not a natural unit interval graph in its labels")
    return tops

