import pytest

from macchroma.chromatic import IdentityViolation, coloring_census
from macchroma.graphs import UGraph, attacking_data, component_partition
from macchroma.jack import (
    hook_alpha,
    jack_chromatic,
    jack_knop_sahi,
    jack_power,
    jack_schur,
    wt_alpha,
)
from macchroma.macdonald import _down_edge_places, ift_enumerate, non_attacking_fillings
from macchroma.rings import AlphaPoly
from macchroma.shapes import partitions_of
from macchroma.symfunc import SymFunc
from ring_values import A, constant_value


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
    for shape, rows in ift_enumerate((2, 1, 1)):
        if shape == (2, 2):
            assert wt_alpha((2, 1, 1), rows) == weights[rows]


def test_wt_alpha_reference_tableau():
    # left-adjacent down-edges {3,5} and {4,6} fire, with hooks 2a+1 and 2a
    rows = ((1, 4, 6), (3, 5), (2,))
    assert wt_alpha((2, 2, 2), rows) == A("2 + 2*a") * A("1 + 2*a")


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
        (x_h,) = coloring_census(h)
        total = total + SymFunc(n, "monomial", {
            lam: weight.scale(constant_value(c.substitute_t(1, 0))) for lam, c in x_h.coeffs.items()
        }, AlphaPoly)
    return total


def test_jack_chromatic_matches_sum_over_sandwich_graphs():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert jack_chromatic(mu) == _jack_chromatic_by_sandwich_graphs(mu), mu


def _jack_knop_sahi_by_filling(mu):
    """The filling formula one filling at a time: a filling weighs the
    product of 1 + hook over the down-edges whose two cells hold equal
    values, and lands on m_lam when its content is lam padded with zeros."""
    n = sum(mu)
    down_edges = attacking_data(mu).down_edges
    coeffs = {}
    for values, _maj, _inv, _arm_des, _mask in non_attacking_fillings(mu):
        content = [values.count(val) for val in range(1, n + 1)]
        if content != sorted(content, reverse=True):
            continue
        weight = AlphaPoly.one()
        for (u, v), arm_u, leg_u in down_edges:
            if values[u - 1] == values[v - 1]:
                weight = weight * (AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        lam = tuple(part for part in content if part)
        coeffs[lam] = coeffs.get(lam, AlphaPoly.zero()) + weight
    return SymFunc(n, "monomial", coeffs, AlphaPoly)


def _jack_schur_by_tableau(mu):
    """The tableau formula one tableau at a time, each weight multiplied out
    from the tableau's down-edge places."""
    coeffs = {}
    for lam, rows in ift_enumerate(mu):
        weight = AlphaPoly.one()
        for place, arm_u, leg_u in _down_edge_places(mu, rows):
            if place == "left":
                weight = weight * (AlphaPoly.one() + hook_alpha(arm_u, leg_u))
            elif place == "top":
                weight = weight * -hook_alpha(arm_u, leg_u)
        coeffs[lam] = coeffs.get(lam, AlphaPoly.zero()) + weight
    return SymFunc(sum(mu), "schur", coeffs, AlphaPoly)


def _jack_power_by_edge_subset(mu):
    """The edge-subset formula one subset S of G+ at a time:
    (-1)^|S cap G| times the hooks of the added edges in S, on p of the
    component sizes of S."""
    n = sum(mu)
    data = attacking_data(mu)
    hooks = {edge: hook_alpha(arm_u, leg_u) for edge, arm_u, leg_u in data.down_edges}
    edges = data.g_plus.edges
    coeffs = {}
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        weight = AlphaPoly.one()
        for edge in subset:
            weight = weight * (hooks[edge] if edge in hooks else AlphaPoly.term(-1))
        lam = component_partition(UGraph(n, subset))
        coeffs[lam] = coeffs.get(lam, AlphaPoly.zero()) + weight
    return SymFunc(n, "power", coeffs, AlphaPoly)


def test_jack_knop_sahi_matches_sum_over_fillings():
    for n in range(6):
        for mu in partitions_of(n):
            assert jack_knop_sahi(mu) == _jack_knop_sahi_by_filling(mu), mu


def test_jack_schur_matches_sum_over_tableaux():
    for n in range(6):
        for mu in partitions_of(n):
            assert jack_schur(mu) == _jack_schur_by_tableau(mu), mu


def test_jack_power_matches_sum_over_edge_subsets():
    for n in range(6):
        for mu in partitions_of(n):
            assert jack_power(mu) == _jack_power_by_edge_subset(mu), mu


def _drop_first_coloring(monkeypatch, content):
    """Make ``chromatic.colorings`` skip the first coloring whose exponent
    vector is ``content``, so every census built from it is lopsided."""
    import macchroma.chromatic as chromatic

    real = chromatic.colorings

    def lopsided(h, palette, proper=True):
        dropped = False
        for coloring, asc in real(h, palette, proper):
            if not dropped and tuple(coloring.count(c) for c in range(1, palette + 1)) == content:
                dropped = True
                continue
            yield coloring, asc

    monkeypatch.setattr(chromatic, "colorings", lopsided)


def test_jack_chromatic_checks_reversed_contents(monkeypatch):
    # one coloring fewer on content (0, 1, 2), the reverse of (2, 1)
    _drop_first_coloring(monkeypatch, (0, 1, 2))
    with pytest.raises(IdentityViolation):
        jack_chromatic((2, 1))


def test_jack_chromatic_audits_every_rearrangement(monkeypatch):
    # one coloring fewer on content (1, 2, 0): neither dominant nor the
    # reverse of a dominant content, so only a full rearrangement audit sees it
    _drop_first_coloring(monkeypatch, (1, 2, 0))
    with pytest.raises(IdentityViolation):
        jack_chromatic((2, 1))


def test_jack_chromatic_is_independent_of_the_knop_sahi_table(monkeypatch):
    import macchroma.jack as jack

    real = jack.mask_products

    def swapped(one, pairs):
        # the same slip in both routes' tables: clear and set exchanged
        return real(one, [(chosen, clear) for clear, chosen in pairs])

    monkeypatch.setattr(jack, "mask_products", swapped)
    for mu in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
        assert jack_chromatic(mu) != jack_knop_sahi(mu), mu


def test_degree_zero():
    for fn in (jack_knop_sahi, jack_chromatic, jack_schur, jack_power):
        assert fn(()).coeffs == {(): AlphaPoly.one()}
