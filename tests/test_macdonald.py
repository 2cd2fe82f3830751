from itertools import permutations, product

import pytest

from macchroma.chromatic import n_lambda
from macchroma.graphs import attacking_data
from macchroma.macdonald import (
    ift_enumerate,
    j_chromatic,
    j_hhl,
    j_power,
    j_schur,
    non_attacking_fillings,
    prefactor,
    wt_mu,
    wt_p,
)
from macchroma.rings import LaurentQT
from macchroma.shapes import partitions_of
from macchroma.symfunc import convert
from ring_values import P


def test_degree_one():
    f = j_hhl((1,))
    assert f.coeffs == {(1,): P("1 - t")}
    assert j_chromatic((1,)) == f
    assert j_schur((1,)).coeffs == {(1,): P("1 - t")}
    assert j_power((1,)).coeffs == {(1,): P("1 - t")}


def test_degree_two_frozen_values():
    # four fillings of the single column: the degree-2 expansion has
    # m_2 -> (1-t)(1-qt) and m_11 -> (1+q)(1-t)^2
    f = j_hhl((1, 1))
    assert f.coeffs == {
        (2,): P("1 - t") * P("1 - q*t"),
        (1, 1): P("1 + q") * P("1 - t") ** 2,
    }
    # single row gives the dual value
    g = j_hhl((2,))
    assert g.coeffs == {(1, 1): P("1 - t") * P("1 - t^2")}


def test_known_schur_coefficient_of_j31():
    s = j_schur((2, 1, 1))
    expected = P("1 - t") ** 2 * P("q - t") * P("1 - q*t") * P("1 + q*t")
    assert str(s.get((2, 2))) == str(expected)
    assert convert(j_hhl((2, 1, 1)), "schur").get((2, 2)) == expected


def test_ift_enumerate_type_211_shape_22():
    found = [rows for shape, rows in ift_enumerate((2, 1, 1)) if shape == (2, 2)]
    assert sorted(found) == [
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
        ((2, 3), (1, 4)),
        ((2, 4), (1, 3)),
    ]


def test_ift_contains_reference_tableau():
    target = ((3, 2, 1), ((1, 4, 6), (3, 5), (2,)))
    assert target in list(ift_enumerate((2, 2, 2)))


def test_ift_brute_force_filter_oracle():
    # independent enumeration: filter every bijective filling of every shape
    def brute(mu):
        data = attacking_data(mu)
        n = sum(mu)
        out = set()
        for lam in partitions_of(n):
            rows_template = [list(range(width)) for width in lam]
            for perm in permutations(range(1, n + 1)):
                it = iter(perm)
                rows = tuple(tuple(next(it) for _ in row) for row in rows_template)
                ok = True
                for r, row in enumerate(rows):
                    for c, val in enumerate(row):
                        if c + 1 < len(row):
                            right = row[c + 1]
                            if val > right or data.g.has_edge(val, right):
                                ok = False
                        if r + 1 <= len(rows) - 1 and c < len(rows[r + 1]):
                            above = rows[r + 1][c]
                            if above < val and not data.g_plus.has_edge(above, val):
                                ok = False
                if ok:
                    out.add((lam, rows))
        return out

    for n in range(1, 6):
        for mu in partitions_of(n):
            mine = set(ift_enumerate(mu))
            assert mine == brute(mu)


def test_ift_deterministic_order():
    first = list(ift_enumerate((2, 2)))
    assert first == list(ift_enumerate((2, 2)))
    shapes = [shape for shape, _ in ift_enumerate((2, 2))]
    assert shapes == sorted(shapes, reverse=True)


def test_wt_mu_values_type_211():
    weights = {
        ((1, 3), (2, 4)): P("q") * P("1 - t") ** 2,
        ((1, 4), (2, 3)): P("q*t") * P("1 - t") * P("1 - q^2*t"),
        ((2, 3), (1, 4)): P("-t") * P("1 - q") * P("1 - q^2*t"),
        ((2, 4), (1, 3)): P("-q^2*t^2") * P("1 - q") * P("1 - t"),
    }
    for shape, rows in ift_enumerate((2, 1, 1)):
        if shape == (2, 2):
            assert wt_mu((2, 1, 1), rows) == weights[rows]


def test_wt_mu_value_type_222():
    rows = ((1, 4, 6), (3, 5), (2,))
    expected = P("q*t^2") * P("1 - t") ** 2 * P("1 - q^2*t") * P("1 - q^2*t^2")
    assert str(wt_mu((2, 2, 2), rows)) == str(expected)


def _brute_fillings(mu):
    """Every full (values, maj, inv, arm_des, equal_mask) tuple, over all n^n
    maps of the cells to 1..n in lexicographic order, from the definitions:
    French cells read top row first, left to right; two cells attack when
    they share a row, or when the earlier one is one row up and strictly to
    the right."""
    cells = [(row, col) for row in range(len(mu), 0, -1) for col in range(1, mu[row - 1] + 1)]
    n = len(cells)
    label = {cell: i for i, cell in enumerate(cells)}
    attacking = [
        (label[a], label[b])
        for a in cells for b in cells
        if label[a] < label[b] and (a[0] == b[0] or (a[0] == b[0] + 1 and a[1] > b[1]))
    ]
    uppers = [cell for cell in cells if cell[0] > 1]
    out = []
    for values in product(range(1, n + 1), repeat=n):
        if any(values[a] == values[b] for a, b in attacking):
            continue
        inv = sum(values[a] > values[b] for a, b in attacking)
        maj = arm_des = mask = 0
        for bit, (row, col) in enumerate(uppers):
            above, below = values[label[(row, col)]], values[label[(row - 1, col)]]
            if above == below:
                mask |= 1 << bit
            elif above > below:
                maj += sum(1 for r in range(row + 1, len(mu) + 1) if mu[r - 1] >= col) + 1
                arm_des += mu[row - 1] - col
        out.append((values, maj, inv, arm_des, mask))
    return out


def test_non_attacking_fillings_against_brute_force():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert list(non_attacking_fillings(mu)) == _brute_fillings(mu)
    assert list(non_attacking_fillings(())) == [((), 0, 0, 0, 0)]


def test_prefactor():
    assert prefactor((1,)) == P("1 - t")
    assert prefactor((3, 2)) == LaurentQT.term(1, 0, -1) * P("1 - t") ** 3


def test_chromatic_expansion_structure():
    # single-row shapes have exactly one summand, so the routes agree trivially
    assert j_chromatic((3,)) == j_hhl((3,))
    assert j_chromatic((4,)) == j_hhl((4,))


def test_chromatic_sum_factors_for_32():
    # the two down-edges of (3,2) carry (arm,leg) = (1,0) and (0,0), so the
    # four sandwich terms pick up (1-qt^2)(1-qt), -(1-qt)^2, -(1-qt^2)(1-q),
    # (1-qt)(1-q), with global factor t^-1 (1-t)^3
    data = attacking_data((3, 2))
    out = [P("1 - q*t^2"), P("1 - q*t")]
    inn = [P("-1 + q*t"), P("-1 + q")]
    expected = {
        0b00: out[0] * out[1],
        0b01: inn[0] * out[1],
        0b10: out[0] * inn[1],
        0b11: inn[0] * inn[1],
    }
    for i, (_, arm_u, leg_u) in enumerate(data.down_edges):
        assert P("1") - LaurentQT.term(1, leg_u + 1, arm_u + 1) == out[i]
        assert -(P("1") - LaurentQT.term(1, leg_u + 1, arm_u)) == inn[i]
    assert expected[0b01] == -(P("1 - q*t") * P("1 - q*t"))
    assert prefactor((3, 2)) == LaurentQT.term(1, 0, -1) * P("1 - t") ** 3


def test_hhl_output_is_polynomial():
    for n in range(1, 6):
        for mu in partitions_of(n):
            for c in j_hhl(mu).coeffs.values():
                assert not c.has_negative_exponents()
                assert c.is_integral()


def test_wt_p_membership_check():
    # wt_p accepts exactly N_lambda(G+): every member, and no other permutation
    data = attacking_data((2, 1, 1))
    members = set(n_lambda(data.g_plus, (2, 2)))
    assert 0 < len(members) < 24
    for sigma in permutations(range(1, 5)):
        if sigma in members:
            wt_p(sigma, (2, 2), (2, 1, 1))
        else:
            with pytest.raises(ValueError):
                wt_p(sigma, (2, 2), (2, 1, 1))


def test_wt_p_input_checks():
    sigma = n_lambda(attacking_data((2, 1, 1)).g_plus, (2, 2))[0]
    wt_p(sigma, (2, 2), (2, 1, 1))
    for bad_sigma in ((1, 1, 2, 3), (1, 2, 3), (1, 2, 3, 5), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError):
            wt_p(bad_sigma, (2, 2), (2, 1, 1))
    for bad_lam in ((2, 1), (2, 2, 1), ()):
        with pytest.raises(ValueError):
            wt_p(sigma, bad_lam, (2, 1, 1))


def test_wt_p_degree_one():
    sigma = n_lambda(attacking_data((1,)).g_plus, (1,))[0]
    assert wt_p(sigma, (1,), (1,)) == LaurentQT.one()


def test_degree_zero_expansions():
    for fn in (j_hhl, j_chromatic, j_schur, j_power):
        f = fn(())
        assert f.coeffs == {(): LaurentQT.one()}
