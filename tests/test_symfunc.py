import random
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from macchroma.rings import AlphaPoly, LaurentQT
from macchroma.shapes import conjugate, partitions_of
from macchroma.symfunc import (
    SymFunc,
    convert,
    hall_table,
    kostka,
    omega,
    power_pairings,
    transition_table,
    z_of,
)
from ring_values import A, P


def random_symfunc(rng, n, basis="monomial"):
    coeffs = {}
    for lam in partitions_of(n):
        if rng.random() < 0.6:
            coeffs[lam] = LaurentQT.term(rng.randint(-5, 5), rng.randint(0, 2), rng.randint(0, 2))
    return SymFunc(n, basis, coeffs, LaurentQT)


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0
    for n in range(8):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
    with pytest.raises(ValueError):
        kostka((2,), (1, 1, 1))


def test_kostka_dominance_triangularity():
    # nonzero only when the shape dominates the content
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if kostka(lam, mu):
                    assert all(
                        sum(lam[: i + 1]) >= sum(mu[: i + 1]) for i in range(len(lam))
                    )


def test_z_values():
    assert z_of((2, 2)) == 8
    assert z_of((1,) * 5) == 120
    assert z_of(()) == 1


def test_z_matches_cycle_type_census():
    # independent census: count permutations by cycle type, compare n!/z
    for n in range(1, 8):
        census = {}
        for sigma in permutations(range(n)):
            seen = [False] * n
            lengths = []
            for start in range(n):
                if seen[start]:
                    continue
                length, v = 0, start
                while not seen[v]:
                    seen[v] = True
                    v = sigma[v]
                    length += 1
                lengths.append(length)
            key = tuple(sorted(lengths, reverse=True))
            census[key] = census.get(key, 0) + 1
        for lam in partitions_of(n):
            assert census.get(lam, 0) == factorial(n) // z_of(lam)


def test_monomial_to_schur_degree_two():
    f = SymFunc(2, "monomial", {(2,): LaurentQT.one()}, LaurentQT)
    s = convert(f, "schur")
    assert s.coeffs == {(2,): LaurentQT.one(), (1, 1): LaurentQT.term(-1)}


def test_power_to_monomial_degree_two():
    f = SymFunc(2, "power", {(1, 1): LaurentQT.one()}, LaurentQT)
    m = convert(f, "monomial")
    assert m.coeffs == {(2,): LaurentQT.one(), (1, 1): LaurentQT.term(2)}


def test_conversion_round_trips():
    rng = random.Random(31337)
    for n in range(0, 7):
        for basis in ("monomial", "schur", "power"):
            for _ in range(4):
                f = random_symfunc(rng, n, basis)
                for target in ("monomial", "schur", "power"):
                    assert convert(convert(f, target), basis) == f


def _monomial_at(mu, point):
    """m_mu at a point: a sum over the distinct rearrangements of mu's parts."""
    exponents = tuple(mu) + (0,) * (len(point) - len(mu))
    return sum((prod(x**e for x, e in zip(point, vec)) for vec in set(permutations(exponents))),
               Fraction(0))


def test_power_to_monomial_against_evaluation_oracle():
    # p_lam(x) = prod_i p_{lam_i}(x) = sum_mu R[lam][mu] m_mu(x) in n variables
    rng = random.Random(4096)
    for n in range(1, 7):
        table = transition_table(n)
        for _ in range(2):
            point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]
            m_at = [_monomial_at(mu, point) for mu in table.partitions]
            for lam, row in zip(table.partitions, table.power_to_monomial):
                p_at = prod(sum(x**part for x in point) for part in lam)
                assert p_at == sum(r * m for r, m in zip(row, m_at)), lam


def test_hall_table_is_dual_to_the_merge_counts():
    # <p_kappa, p_lam> = z_lam [kappa == lam], read through p_kappa = sum_nu R[kappa][nu] m_nu
    for n in range(0, 9):
        table = transition_table(n)
        hall = hall_table(n)
        assert all(type(entry) is int for row in hall for entry in row)
        for j, lam in enumerate(table.partitions):
            for kappa, merge in zip(table.partitions, table.power_to_monomial):
                pairing = sum(r * row[j] for r, row in zip(merge, hall))
                assert pairing == (z_of(lam) if kappa == lam else 0), (kappa, lam)


def _compositions(k):
    for cuts in range(k):
        for inner in combinations(range(1, k), cuts):
            bounds = (0, *inner, k)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_hall_table_against_newton_identities():
    # p_k = sum over compositions alpha of k of (-1)^(len(alpha) - 1) alpha_1 h_alpha,
    # and p_lam = prod_i p_{lam_i}, so [h_mu] p_lam is read off a product of h's
    newton = {k: Counter() for k in range(1, 9)}
    for k in newton:
        for alpha in _compositions(k):
            newton[k][tuple(sorted(alpha, reverse=True))] += (-1) ** (len(alpha) - 1) * alpha[0]
    for n in range(1, 9):
        table = transition_table(n)
        for lam, column in zip(table.partitions, zip(*hall_table(n))):
            product = Counter({(): 1})
            for part in lam:
                step = Counter()
                for mu, c in product.items():
                    for nu, d in newton[part].items():
                        step[tuple(sorted(mu + nu, reverse=True))] += c * d
                product = step
            assert list(column) == [product[mu] for mu in table.partitions], lam


def test_power_pairings_clear_z_on_ints():
    rng = random.Random(2112)
    for n in range(1, 6):
        for _ in range(3):
            f = random_symfunc(rng, n)
            pairings = power_pairings(f)
            assert pairings == power_pairings(convert(f, "power"))
            assert pairings == power_pairings(convert(f, "schur"))
            for lam, v in pairings.items():
                assert all(type(c) is int for c in v.terms.values())
                assert v.scale(Fraction(1, z_of(lam))) == convert(f, "power").get(lam)
    third = SymFunc(2, "power", {(2,): LaurentQT.term(Fraction(1, 3))}, LaurentQT)
    assert power_pairings(third) == {(2,): LaurentQT.term(Fraction(2, 3)), (1, 1): LaurentQT.zero()}


def test_omega():
    s = SymFunc(3, "schur", {(2, 1): LaurentQT.one()}, LaurentQT)
    assert omega(s) == s
    p = SymFunc(3, "power", {(2, 1): LaurentQT.one()}, LaurentQT)
    assert omega(p).coeffs == {(2, 1): LaurentQT.term(-1)}
    rng = random.Random(2)
    for n in range(1, 7):
        for basis in ("schur", "power"):
            f = random_symfunc(rng, n, basis)
            assert omega(omega(f)) == f
    with pytest.raises(ValueError):
        omega(random_symfunc(rng, 3, "monomial"))


def test_omega_routes_commute():
    rng = random.Random(3)
    for n in range(1, 7):
        f = random_symfunc(rng, n, "schur")
        assert convert(omega(f), "power") == omega(convert(f, "power"))


def test_unitriangularity_of_kostka_table():
    for n in range(1, 10):
        table = transition_table(n)
        for i, lam in enumerate(table.partitions):
            assert table.kostka[i][i] == 1
            # p_lam contains m_lam once per rearrangement of lam's equal parts
            assert table.power_to_monomial[i][i] == prod(factorial(lam.count(p)) for p in set(lam))
            for j in range(i):
                # earlier in descending lex means not dominated; entry must vanish
                assert table.kostka[i][j] == 0
                # p_lam only reaches m_mu for mu coarser than lam, so earlier in the order
                assert table.power_to_monomial[j][i] == 0
        # both solves invert their forward matrix: p -> m -> p and s -> m -> s
        for ring, c in ((LaurentQT, P("q - 2*t")), (AlphaPoly, A("1 + a"))):
            for lam in table.partitions:
                for basis in ("power", "schur"):
                    f = SymFunc(n, basis, {lam: c}, ring)
                    assert convert(convert(f, "monomial"), basis) == f, (ring, basis, lam)


def test_alpha_ring_conversions():
    f = SymFunc(3, "monomial",
                {(3,): A("1 + a"), (2, 1): A("2"),
                 (1, 1, 1): A("a^2")},
                AlphaPoly)
    for target in ("schur", "power"):
        assert convert(convert(f, target), "monomial") == f


def test_degree_zero():
    unit = SymFunc(0, "monomial", {(): LaurentQT.one()}, LaurentQT)
    assert convert(unit, "schur").coeffs == {(): LaurentQT.one()}
    assert convert(unit, "power").coeffs == {(): LaurentQT.one()}


@pytest.mark.parametrize("lam", [(1, 2), (3, 0), (1.5, 1.5)])
def test_an_index_that_is_no_partition_is_rejected(lam):
    # it used to reach convert, whose back-substitution then reported an
    # identity violation for the malformed input
    with pytest.raises(ValueError, match="not a partition of 3"):
        SymFunc(3, "monomial", {lam: LaurentQT.one()}, LaurentQT)


def test_a_negative_degree_is_rejected():
    with pytest.raises(ValueError, match="negative degree"):
        SymFunc(-1, "monomial", {}, LaurentQT)


@pytest.mark.parametrize("coeff, ring", [(AlphaPoly.one(), LaurentQT), (LaurentQT.one(), AlphaPoly),
                                         (AlphaPoly.zero(), LaurentQT)])
def test_a_coefficient_outside_the_ring_is_rejected(coeff, ring):
    # it used to be accepted, and convert then failed on the key shape
    with pytest.raises(TypeError, match=f"{type(coeff).__name__}, not {ring.__name__}"):
        SymFunc(2, "monomial", {(2,): coeff}, ring)


def test_json_shape():
    f = SymFunc(4, "schur", {(2, 2): P("1 - q*t")}, LaurentQT)
    blob = f.to_json_dict()
    assert blob == {
        "object": "symfunc",
        "degree": 4,
        "basis": "schur",
        "ring": "laurent_qt",
        "terms": [{"index": [2, 2], "coeff": "1 - q*t"}],
    }


def test_conjugate_index_consistency():
    # omega on schur moves coefficients to conjugate indices
    f = SymFunc(4, "schur", {(3, 1): P("q")}, LaurentQT)
    assert omega(f).coeffs == {conjugate((3, 1)): P("q")}
