import pytest

from macchroma.chromatic import IdentityViolation, coloring_census, x_g
from macchroma.graphs import attacking_data
from macchroma.jack import (
    hook_alpha,
    jack_chromatic,
    jack_knop_sahi,
    jack_power,
    jack_schur,
    wt_alpha,
)
from macchroma.macdonald import IFTableau, ift_enumerate
from macchroma.rings import AlphaPoly
from macchroma.shapes import conjugate, partitions_of
from macchroma.symfunc import SymFunc, convert

A = AlphaPoly.parse


def test_degree_one():
    f = jack_knop_sahi((1,))
    assert f.coeffs == {(1,): AlphaPoly.one()}
    assert jack_chromatic((1,)) == f
    assert jack_power((1,)).coeffs == {(1,): AlphaPoly.one()}


def test_degree_two():
    # column diagram: the cell above the bottom one has hook a, so the
    # repeated-value fillings carry 1+a and the distinct ones count twice
    f = jack_knop_sahi((1, 1))
    assert f.coeffs == {(2,): A("1 + a"), (1, 1): A("2")}


def test_hook_values_for_32():
    # labels 1,2 on the short row: hooks a+1 and a
    from macchroma.graphs import attacking_data

    data = attacking_data((3, 2))
    hooks = {edge: hook_alpha(arm_u, leg_u) for edge, arm_u, leg_u in data.down_edges}
    assert hooks[(1, 3)] == A("1 + a")
    assert hooks[(2, 4)] == A("a")


def test_known_schur_coefficient():
    s = jack_schur((2, 1, 1))
    assert str(s.get((2, 2))) == str(A("2 - 2*a^2"))


def test_wt_alpha_values_type_211():
    # hooks of the two stacked cells are a and 2a
    weights = {
        ((1, 3), (2, 4)): AlphaPoly.one(),
        ((1, 4), (2, 3)): A("1 + 2*a"),
        ((2, 3), (1, 4)): A("-a") * A("1 + 2*a"),
        ((2, 4), (1, 3)): A("-a"),
    }
    for tableau in ift_enumerate((2, 1, 1)):
        if tableau.shape == (2, 2):
            assert wt_alpha(tableau) == weights[tableau.rows]


def test_wt_alpha_reference_tableau():
    # left-adjacent down-edges {3,5} and {4,6} fire, with hooks 2a+1 and 2a
    tableau = IFTableau((2, 2, 2), (3, 2, 1), ((1, 4, 6), (3, 5), (2,)))
    assert wt_alpha(tableau) == A("2 + 2*a") * A("1 + 2*a")


def test_known_power_coefficient():
    p = jack_power((2, 1, 1))
    assert str(p.get((2, 2))) == "-a"


def _jack_chromatic_by_sandwich_graphs(mu):
    """The chromatic-sum formula term by term: for each sandwich graph H,
    w(H) = prod over down-edges of -hook (in H) or 1 + hook (not), times
    X_H at t = 1, enumerated afresh for every H."""
    n = sum(mu)
    data = attacking_data(mu)
    k = len(data.down_edges)
    hooks = [hook_alpha(arm_u, leg_u) for (_, arm_u, leg_u) in data.down_edges]
    total = SymFunc(n, "monomial", {}, AlphaPoly)
    for mask in range(1 << k):
        h = data.g.with_edges(data.down_edges[i][0] for i in range(k) if mask >> i & 1)
        weight = AlphaPoly.one()
        for i in range(k):
            weight = weight * (-hooks[i] if mask >> i & 1 else AlphaPoly.one() + hooks[i])
        counts = x_g(h, with_t=False)
        total = total + SymFunc(n, "monomial", {
            lam: weight.scale(c.constant_value()) for lam, c in counts.coeffs.items()
        }, AlphaPoly)
    return total


def test_jack_chromatic_matches_sum_over_sandwich_graphs():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert jack_chromatic(mu) == _jack_chromatic_by_sandwich_graphs(mu), mu


def test_jack_chromatic_checks_reversed_contents(monkeypatch):
    import macchroma.jack as jack

    def lopsided(g, added):
        # one coloring fewer on content (0, 1, 2), the reverse of (2, 1)
        census = coloring_census(g, added)
        counts = {vec: dict(keys) for vec, keys in census.counts.items()}
        key = next(iter(counts[(0, 1, 2)]))
        counts[(0, 1, 2)][key] -= 1
        return census._replace(counts=counts)

    monkeypatch.setattr(jack, "coloring_census", lopsided)
    with pytest.raises(IdentityViolation):
        jack_chromatic((2, 1))


def test_power_sign_conventions_agree():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert jack_power(mu) == jack_power(mu, sign_on_total_edges=True)


def test_four_way_equality_small():
    for n in range(1, 6):
        for mu in partitions_of(n):
            reference = jack_knop_sahi(mu)
            assert jack_chromatic(mu) == reference
            assert convert(jack_schur(mu), "monomial") == reference
            assert convert(jack_power(mu), "monomial") == reference


def test_alpha_one_collapses_to_single_schur_index():
    for n in range(1, 6):
        for mu in partitions_of(n):
            schur = jack_schur(mu)
            target = conjugate(mu)
            for lam, c in schur.coeffs.items():
                value = c.substitute(1)
                if lam == target:
                    assert value != 0
                else:
                    assert value == 0


def test_degree_zero():
    for fn in (jack_knop_sahi, jack_chromatic, jack_schur, jack_power):
        assert fn(()).coeffs == {(): AlphaPoly.one()}
