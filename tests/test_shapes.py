from fractions import Fraction

import pytest

from macchroma.graphs import attacking_data
from macchroma.macdonald import j_schur
from macchroma.shapes import (
    check_partition,
    conjugate,
    n_stat,
    parse_partition,
    partitions_of,
)


def _cells(mu):
    """French cells in reading order (top row first, left to right)."""
    return [(row, col) for row in range(len(mu), 0, -1) for col in range(1, mu[row - 1] + 1)]


def _oracle(mu):
    """(G edges, G+ edges, down-edges with (arm, leg)) of mu, cell by cell
    from the definitions: arm counts the cells to the right in the row, leg
    the cells above in the column, and down(u) is the cell just below u."""
    cells = _cells(mu)
    label = {cell: v for v, cell in enumerate(cells, start=1)}
    g = sorted((label[a], label[b]) for a in cells for b in cells
               if label[a] < label[b] and (a[0] == b[0] or (a[0] == b[0] + 1 and a[1] > b[1])))
    down = []
    for row, col in cells:
        below = (row - 1, col)
        if below in label:
            arm = sum(1 for r, c in cells if r == row and c > col)
            leg = sum(1 for r, c in cells if c == col and r > row)
            down.append(((label[row, col], label[below]), arm, leg))
    return g, sorted(g + [edge for edge, _, _ in down]), down


def test_partition_validation():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])
    # a part that is not an integer is refused, not truncated
    for parts in ((2.5, 1), (2.7,), (Fraction(3, 2),)):
        with pytest.raises(ValueError):
            check_partition(parts)
    with pytest.raises(ValueError):
        j_schur((2.7,))
    assert check_partition((2.0, Fraction(1))) == (2, 1)
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("x,1")


def test_conjugate():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate(()) == ()
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_partitions_of_order_and_counts():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    counts = [len(partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_attacking_data_matches_cell_oracle():
    for n in range(9):
        for mu in partitions_of(n):
            d = attacking_data(mu)
            g, g_plus, down = _oracle(mu)
            assert d.g.n == d.g_plus.n == n, mu
            assert list(d.g.edges) == g, mu
            assert list(d.g_plus.edges) == g_plus, mu
            assert list(d.down_edges) == down, mu


def test_arm_leg_down_reference_shape():
    # shape (4,3,3,2); the marked cell sits in row 2 (from the bottom),
    # column 2: label 7 in reading order, above (1, 2) with label 10
    d = attacking_data((4, 3, 3, 2))
    assert ((7, 10), 1, 2) in d.down_edges


def test_n_stat():
    assert n_stat((2, 2, 1)) == 4
    assert n_stat((1,)) == 0
    assert n_stat(()) == 0
    for n in range(9):
        for lam in partitions_of(n):
            cells = _cells(lam)  # the total leg, cell by cell
            assert n_stat(lam) == sum(1 for row, col in cells for r, c in cells
                                      if c == col and r > row)


def test_caches_stay_within_their_bounds():
    from macchroma import chromatic, graphs, symfunc

    for n in range(10):
        for mu in partitions_of(n):
            graphs.attacking_data(mu)
            chromatic._lambda_factors(mu)
    for n in range(1, 10):
        symfunc.transition_table(n)
    for cache in (partitions_of, graphs.attacking_data, chromatic._lambda_factors,
                  symfunc.transition_table):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache
