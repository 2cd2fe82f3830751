import pytest

from macchroma.shapes import (
    Diagram,
    arm,
    attacking_pairs,
    check_partition,
    conjugate,
    down,
    leg,
    n_stat,
    parse_partition,
    partitions_of,
)


def test_partition_validation():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])
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


def test_reading_order_labels():
    d = Diagram((3, 2))
    # top row first: labels 1,2 on the row of length 2, then 3,4,5 below
    assert d.cells_by_label == ((2, 1), (2, 2), (1, 1), (1, 2), (1, 3))
    assert d.label_by_cell[(1, 3)] == 5


def test_arm_leg_down_reference_shape():
    # shape (4,3,3,2); the marked cell sits in row 2 (from the bottom), column 2
    mu = (4, 3, 3, 2)
    u = (2, 2)
    assert arm(mu, u) == 1
    assert leg(mu, u) == 2
    assert down(mu, u) == (1, 2)


def test_arm_leg_small_values():
    d = Diagram((3, 2))
    assert d.arm_by_label[1] == 1 and d.leg_by_label[1] == 0
    assert down((3, 2), (1, 1)) is None
    with pytest.raises(ValueError):
        arm((3, 2), (2, 3))


def test_n_stat():
    assert n_stat((2, 2, 1)) == 4
    assert n_stat((1,)) == 0
    assert n_stat(()) == 0
    for n in range(9):
        for lam in partitions_of(n):
            d = Diagram(lam)
            assert n_stat(lam) == sum(d.leg_by_label.values())


def test_total_arm_equals_n_of_conjugate():
    for n in range(9):
        for mu in partitions_of(n):
            d = Diagram(mu)
            assert sum(d.arm_by_label.values()) == n_stat(conjugate(mu))


def test_attacking_pairs_examples():
    assert set(attacking_pairs((3, 2))) == {(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert attacking_pairs((2, 1, 1)) == ((3, 4),)
    assert attacking_pairs((1, 1)) == ()


def test_attacking_pair_count_identity():
    for n in range(1, 9):
        for mu in partitions_of(n):
            expected = 2 * n_stat(conjugate(mu)) - mu[0] * (mu[0] - 1) // 2
            pairs = attacking_pairs(mu)
            assert len(pairs) == expected
            assert len(set(pairs)) == len(pairs)
            assert all(u < v for u, v in pairs)


def test_down_label_increases():
    for n in range(1, 8):
        for mu in partitions_of(n):
            d = Diagram(mu)
            for u, v in d.down_by_label.items():
                assert v > u


def test_caches_stay_within_their_bounds(monkeypatch):
    from macchroma import chromatic, graphs, symfunc

    # a bound small enough for the sweep to overflow, so eviction runs
    monkeypatch.setattr(Diagram, "_CACHE_SIZE", 8)
    monkeypatch.setattr(Diagram, "_cache", {})
    for n in range(10):
        for mu in partitions_of(n):
            Diagram(mu)
            graphs.attacking_data(mu)
            chromatic._lambda_factors(mu)
            assert len(Diagram._cache) <= Diagram._CACHE_SIZE
    for n in range(1, 10):
        symfunc.transition_table(n)
    for cache in (partitions_of, graphs.attacking_data, chromatic._lambda_factors,
                  symfunc.transition_table):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache
