"""Jack polynomials by four routes, with coefficients polynomial in the
deformation parameter.

The routes mirror the q,t case: Knop-Sahi non-attacking fillings (the
reference route, read from ``macdonald.non_attacking_fillings``), a
chromatic-sum formula over sandwich graphs, an integral form tableau Schur
formula (``wt_alpha`` reads ``wt_mu``'s down-edge places), and an
edge-subset power sum formula signed by overlap with G.  Every weight is a
product of hooks ``a*(leg+1) + arm`` attached to the upper cell of a
down-edge.  As with the q,t case, the output index is the conjugate of the
input diagram.  ``ROUTES`` names the routes by CLI method, reference first.

Every route counts its objects as integers per key before it builds any
polynomial, and scales each key's weight once by its count: the filling
route per (content, equal mask), the chromatic-sum route per (content,
sandwich mask), the tableau route per (shape, down-edge place vector), and
the edge-subset route per (component partition, added-edge mask), +1 or -1
by the parity of the overlap with G.  The filling, chromatic and edge-subset
routes read their per-down-edge weight products from one table by mask
(``rings.mask_products``) and sum them with ``_weighted_sum``.

The chromatic-sum route is the paper's sum over the sandwich graphs
G <= H <= G+: one coloring census of the attacking graph
(``coloring_census``) gives every X_H, and each X_H(x; 1) is weighted by
its mask's product of the unsimplified (out_i, in_i) factors.  No factor is
summed in advance, so this route's weight table is not the Knop-Sahi
route's.
"""

from __future__ import annotations

from collections import Counter

# x_g is not called here; the name stays importable from jack because
# perfbench's tracer self-tests check that every reference to it is wrapped
from .chromatic import coloring_census, x_g  # noqa: F401
from .graphs import UGraph, attacking_data, component_partition
from .macdonald import _down_edge_places, ift_enumerate, non_attacking_fillings
from .rings import AlphaPoly, mask_products
from .shapes import check_partition
from .symfunc import SymFunc, monomial_from_contents


def hook_alpha(arm: int, leg: int) -> AlphaPoly:
    """a*(leg+1) + arm."""
    return AlphaPoly({(1,): leg + 1, (0,): arm})


def _weighted_sum(weights, counts) -> AlphaPoly:
    """The sum of ``count * weights[key]`` over the integer ``counts``
    {key: count}: one scaled weight per key, whatever the number of objects
    counted under it."""
    total = AlphaPoly.zero()
    for key, count in counts.items():
        total = total + weights[key].scale(count)
    return total


def jack_knop_sahi(mu) -> SymFunc:
    """Knop-Sahi filling formula, monomial basis: a filling weighs the
    product of 1 + hook over the down-edges whose two cells carry equal
    values.  Fillings are counted per (content, equal mask)."""
    mu = check_partition(mu)
    n = sum(mu)
    weight_by_mask = mask_products(AlphaPoly.one(), [
        (AlphaPoly.one(), AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        for (_, arm_u, leg_u) in attacking_data(mu).down_edges
    ])

    counts: dict[tuple[int, ...], dict[int, int]] = {}  # {content: {mask: fillings}}
    for values, _maj, _inv, _arm_des, mask in non_attacking_fillings(mu):
        vec = [0] * n
        for val in values:
            vec[val - 1] += 1
        by_mask = counts.setdefault(tuple(vec), {})
        by_mask[mask] = by_mask.get(mask, 0) + 1

    return monomial_from_contents(counts, n, AlphaPoly, lambda by_mask: _weighted_sum(weight_by_mask, by_mask))


def jack_chromatic(mu) -> SymFunc:
    """Chromatic-sum formula: hook-weighted chromatic symmetric functions.

    The formula sums w(H) X_H(x; 1) over the sandwich graphs G <= H <= G+,
    where G is the attacking graph, added edge i is the down-edge of a cell
    with hook h_i, and w(H) = prod over added edges of in_i = -h_i (edge in
    H) or out_i = 1 + h_i (not).  Every X_H comes from one
    ``coloring_census`` of G, which audits each H for symmetry; the
    integer X_H(x; 1) coefficients are gathered per (content, mask) and each
    is weighted once.
    """
    mu = check_partition(mu)
    data = attacking_data(mu)
    hooks = [hook_alpha(arm_u, leg_u) for (_, arm_u, leg_u) in data.down_edges]
    weights = mask_products(AlphaPoly.one(), [(AlphaPoly.one() + hook, -hook) for hook in hooks])
    counts: dict[tuple[int, ...], dict[int, int]] = {}  # {lam: {mask: [m_lam] X_H(x; 1)}}
    for mask, x in enumerate(coloring_census(data.g, data.added)):
        for lam, c in x.coeffs.items():
            # X_H(x; 1): the coefficient's ascent polynomial at t = 1
            counts.setdefault(lam, {})[mask] = sum(c.terms.values())
    return SymFunc(sum(mu), "monomial",
                   {lam: _weighted_sum(weights, by_mask) for lam, by_mask in counts.items()}, AlphaPoly)


def _weight_of_places(places) -> AlphaPoly:
    """The product over (place, arm(u), leg(u)) per down-edge {u, v}
    (``_down_edge_places``) of 1+hook(u) when u sits immediately left of v,
    -hook(u) when u sits immediately above v, and 1 otherwise."""
    weight = AlphaPoly.one()
    for place, arm_u, leg_u in places:
        if place == "left":
            weight = weight * (AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        elif place == "top":
            weight = weight * (-hook_alpha(arm_u, leg_u))
    return weight


def wt_alpha(mu, rows) -> AlphaPoly:
    """Hook weight of an integral form tableau of type mu, given by its rows.

    Per down-edge {u, v}: multiply by 1+hook(u) when u sits immediately left
    of v, by -hook(u) when u sits immediately above v, and by 1 otherwise.
    """
    return _weight_of_places(_down_edge_places(tuple(mu), rows))


def jack_schur(mu) -> SymFunc:
    """Integral form tableau formula, Schur basis.  Tableaux are counted per
    (shape, down-edge place vector), and each vector is weighted once."""
    mu = check_partition(mu)
    counts = Counter((lam, tuple(_down_edge_places(mu, rows))) for lam, rows in ift_enumerate(mu))
    coeffs: dict[tuple[int, ...], AlphaPoly] = {}
    for (lam, places), count in counts.items():
        term = _weight_of_places(places).scale(count)
        coeffs[lam] = coeffs[lam] + term if lam in coeffs else term
    return SymFunc(sum(mu), "schur", coeffs, AlphaPoly)


def jack_power(mu) -> SymFunc:
    """Edge-subset formula over all subsets S of the augmented attacking graph.

    Each subset is signed by its overlap with the attacking graph G and
    multiplies the plain hooks of its added edges, and lands on the power
    sum of its component sizes.  Signing by the full edge count with negated
    hooks is the same term for every S, since
    (-1)^|S| prod_{e in S-G} (-h_e) = (-1)^|S cap G| prod_{e in S-G} h_e.
    Subsets are counted per (component partition, added-edge mask), +1 for
    an even overlap and -1 for an odd one, and each mask's product of hooks
    is read from one table.
    """
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    bit_of = {edge: 1 << i for i, edge in enumerate(data.added)}
    hooks_by_mask = mask_products(AlphaPoly.one(), [
        (AlphaPoly.one(), hook_alpha(arm_u, leg_u)) for _, arm_u, leg_u in data.down_edges
    ])
    g_edges = data.g.edge_set()
    edges = data.g_plus.edges
    counts: dict[tuple[int, ...], dict[int, int]] = {}  # {lam: {added mask: signed subsets}}
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        added = 0
        sign = 1
        for edge in subset:
            if edge in g_edges:
                sign = -sign
            else:
                added |= bit_of[edge]
        by_added = counts.setdefault(component_partition(UGraph(n, subset)), {})
        by_added[added] = by_added.get(added, 0) + sign
    return SymFunc(n, "power", {lam: _weighted_sum(hooks_by_mask, by_added) for lam, by_added in counts.items()},
                   AlphaPoly)


ROUTES = {"knop-sahi": jack_knop_sahi, "chromatic": jack_chromatic, "tableaux": jack_schur, "subsets": jack_power}
