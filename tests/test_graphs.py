from itertools import combinations, product
from math import comb

import pytest

from macchroma.graphs import (
    UGraph,
    attacking_data,
    component_partition,
    colorings,
    hessenberg,
    sandwich_graphs,
)
from macchroma.shapes import conjugate, n_stat, partitions_of


def is_claw_free(h):
    """True when no vertex has three pairwise non-adjacent neighbors: the
    weaker condition that ``hessenberg`` replaced, kept as an oracle."""
    for v in range(1, h.n + 1):
        for a, b, c in combinations(sorted(h.neighbors(v)), 3):
            if not (h.has_edge(a, b) or h.has_edge(a, c) or h.has_edge(b, c)):
                return False
    return True


def chromatic_polynomial_at(edges, n, k):
    """Deletion-contraction oracle for the number of proper k-colorings."""
    edges = [tuple(sorted(e)) for e in edges]
    if not edges:
        return k**n
    (u, v), rest = edges[0], edges[1:]
    deleted = chromatic_polynomial_at(rest, n, k)
    merged = []
    for a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            merged.append(tuple(sorted((a2, b2))))
    contracted = chromatic_polynomial_at(sorted(set(merged)), n - 1, k)
    return deleted - contracted


def test_ugraph_normalization():
    g = UGraph(3, [(2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    with pytest.raises(ValueError):
        UGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        UGraph(2, [(1, 3)])


def test_attacking_data_examples():
    d = attacking_data((3, 2))
    assert set(d.g.edges) == {(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert set(d.g_plus.edges) - set(d.g.edges) == {(1, 3), (2, 4)}
    assert [e for e, _, _ in d.down_edges] == [(1, 3), (2, 4)]
    assert [(a, l) for _, a, l in d.down_edges] == [(1, 0), (0, 0)]

    d = attacking_data((2, 1, 1))
    assert d.g.edges == ((3, 4),)
    assert d.g_plus.edges == ((1, 2), (2, 3), (3, 4))

    d = attacking_data((1, 1))
    assert d.g.edges == ()
    assert d.g_plus.edges == ((1, 2),)


def test_down_edge_annotations_and_counts():
    for n in range(1, 9):
        for mu in partitions_of(n):
            d = attacking_data(mu)
            assert len(d.g.edges) == 2 * n_stat(conjugate(mu)) - mu[0] * (mu[0] - 1) // 2
            assert len(d.down_edges) == n - mu[0]
            g_edges = set(d.g.edges)
            for (u, v), _, _ in d.down_edges:
                assert u < v and (u, v) not in g_edges


def test_sandwich_graphs():
    d = attacking_data((3, 2))
    graphs = list(sandwich_graphs(d))
    assert len(graphs) == 4
    assert graphs[0] == d.g
    assert graphs[-1] == d.g_plus
    assert len(set(graphs)) == 4
    # bit i of a mask adds added[i], the i-th down-edge; no other mask is a sandwich graph
    assert d.added == tuple(edge for edge, _, _ in d.down_edges)
    assert graphs[1] == d.sandwich(1) == d.g.with_edges([d.added[0]])
    for mask in (-1, 4):
        with pytest.raises(ValueError):
            d.sandwich(mask)
    single = attacking_data((4,))
    assert list(sandwich_graphs(single)) == [single.g]
    for n in range(1, 8):
        for mu in partitions_of(n):
            d = attacking_data(mu)
            assert sum(1 for _ in sandwich_graphs(d)) == 1 << (n - mu[0])


def test_component_partition():
    assert component_partition(UGraph(4, [(1, 2), (3, 4)])) == (2, 2)
    assert component_partition(UGraph(4)) == (1, 1, 1, 1)
    assert component_partition(UGraph(3, [(1, 2), (2, 3)])) == (3,)


def test_proper_colorings_basic():
    g = UGraph(2, [(1, 2)])
    assert list(colorings(g, 2)) == [((1, 2), 1), ((2, 1), 0)]
    empty = UGraph(3)
    cols = list(colorings(empty, 3))
    assert len(cols) == 27 and all(asc == 0 for _, asc in cols)
    with pytest.raises(ValueError):
        next(colorings(g, 0))


def test_empty_graph_has_one_empty_coloring():
    for palette in (0, 1, 3):
        assert list(colorings(UGraph(0), palette)) == [((), 0)]
        assert list(colorings(UGraph(0), palette, proper=False)) == [((), 0)]
    with pytest.raises(ValueError):
        next(colorings(UGraph(1), 0))


def test_all_colorings():
    g = UGraph(2, [(1, 2)])
    assert list(colorings(g, 2, proper=False)) == [
        ((1, 1), 0), ((1, 2), 1), ((2, 1), 0), ((2, 2), 0),
    ]


def test_coloring_counts_match_deletion_contraction():
    d = attacking_data((3, 2))
    for g in (d.g, d.g_plus):
        for k in (3, 5):
            mine = sum(1 for _ in colorings(g, k))
            assert mine == chromatic_polynomial_at(g.edges, g.n, k)
    path = UGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert sum(1 for _ in colorings(path, 3)) == chromatic_polynomial_at(path.edges, 4, 3)


def test_ascent_definition():
    g = UGraph(3, [(1, 3)])
    by_coloring = dict(colorings(g, 3))
    assert by_coloring[(1, 1, 2)] == 1
    assert by_coloring[(2, 3, 1)] == 0
    assert by_coloring[(1, 2, 3)] == 1


def test_is_claw_free():
    star = UGraph(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_claw_free(star)
    k4 = UGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert is_claw_free(k4)
    assert is_claw_free(UGraph(3))


def test_all_sandwich_graphs_claw_free():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for h in sandwich_graphs(attacking_data(mu)):
                assert is_claw_free(h)
                hessenberg(h)


def _natural_unit_interval_graphs(n):
    """{edge set: h} over the Hessenberg functions h of n (weakly
    increasing, i <= h(i) <= n), each with its graph: i < j joined exactly
    when j <= h(i)."""
    table = {}
    for h in product(range(1, n + 1), repeat=n):
        if all(top >= i for i, top in enumerate(h, start=1)) and list(h) == sorted(h):
            table[frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, h[i - 1] + 1))] = h
    return table


def test_hessenberg_accepts_exactly_the_natural_unit_interval_graphs():
    claw_free_rejected = 0
    for n in range(0, 6):
        table = _natural_unit_interval_graphs(n)
        assert len(table) == comb(2 * n, n) // (n + 1)  # Catalan many
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = frozenset(pair for i, pair in enumerate(pairs) if bits >> i & 1)
            g = UGraph(n, edges)
            if edges in table:
                assert hessenberg(g) == table[edges]
            else:
                with pytest.raises(ValueError):
                    hessenberg(g)
                claw_free_rejected += is_claw_free(g)
    # so a claw-free test in its place fails this test
    assert claw_free_rejected == 3 + 46 + 727  # on 3, 4 and 5 vertices


def test_component_partition_ignores_edge_input_order():
    a = UGraph(5, [(4, 5), (1, 3)])
    b = UGraph(5, [(1, 3), (4, 5)])
    assert a == b
    assert component_partition(a) == component_partition(b) == (2, 2, 1)


def test_colorings_deterministic_order():
    g = UGraph(3, [(1, 2), (2, 3)])
    first = list(colorings(g, 3))
    assert first == list(colorings(g, 3))
    assert first == sorted(first, key=lambda item: item[0])


def _ascents(h, coloring):
    return sum(1 for u, v in h.edges if coloring[u - 1] < coloring[v - 1])


def _all_labelled_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield UGraph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])


def test_colorings_against_product_oracle():
    """Every labelled graph on n <= 4 vertices (and two shapes' graphs),
    palettes 1..n+1, as ordered lists: the order is lexicographic."""
    graphs = [*_all_labelled_graphs(4), attacking_data((3, 1, 1)).g, attacking_data((2, 2, 1)).g_plus]
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 2
    for h in graphs:
        for k in range(1, h.n + 2):
            everything = [(c, _ascents(h, c)) for c in product(range(1, k + 1), repeat=h.n)]
            assert list(colorings(h, k, proper=False)) == everything
            proper = [(c, asc) for c, asc in everything
                      if all(c[u - 1] != c[v - 1] for u, v in h.edges)]
            assert list(colorings(h, k)) == proper
