"""Jack polynomials by four routes, with coefficients polynomial in the
deformation parameter.

The routes mirror the q,t case: Knop-Sahi non-attacking fillings (the
reference route, read from ``macdonald.non_attacking_fillings``), a
chromatic-sum formula over sandwich graphs, an integral form tableau Schur
formula (``wt_alpha`` reads ``wt_mu``'s down-edge places), and an
edge-subset power sum formula signed by overlap with G.  Every
weight is a product of hooks ``a*(leg+1) + arm`` attached to the upper cell
of a down-edge.  As with the q,t case, the output index is the conjugate of
the input diagram.

Each filling and chromatic route reads its per-down-edge weight products
from one table by mask (``rings.mask_products``).  The chromatic-sum route
is the paper's sum over the sandwich graphs G <= H <= G+: one coloring
census of the attacking graph (``coloring_census``) is read once by
``from_census``, which gives every X_H, and each X_H(x; 1) is weighted by
its mask's product of the unsimplified (out_i, in_i) factors.  No factor is
summed in advance, so this route's weight table is not the Knop-Sahi
route's.
"""

from __future__ import annotations

# x_g is not called here; the name stays importable from jack because
# perfbench's tracer self-tests check that every reference to it is wrapped
from .chromatic import coloring_census, from_census, x_g  # noqa: F401
from .graphs import UGraph, attacking_data, component_partition
from .macdonald import _down_edge_places, ift_enumerate, non_attacking_fillings
from .rings import AlphaPoly, mask_products
from .shapes import check_partition
from .symfunc import SymFunc, monomial_from_contents


def hook_alpha(arm: int, leg: int) -> AlphaPoly:
    """a*(leg+1) + arm."""
    return AlphaPoly({(1,): leg + 1, (0,): arm})


def jack_knop_sahi(mu) -> SymFunc:
    """Knop-Sahi filling formula, monomial basis."""
    mu = check_partition(mu)
    n = sum(mu)
    weight_by_mask = mask_products(AlphaPoly.one(), [
        (AlphaPoly.one(), AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        for (_, arm_u, leg_u) in attacking_data(mu).down_edges
    ])

    buckets: dict[tuple[int, ...], AlphaPoly] = {}
    for values, _maj, _inv, _arm_des, mask in non_attacking_fillings(mu):
        vec = [0] * n
        for val in values:
            vec[val - 1] += 1
        key = tuple(vec)
        prior = buckets.get(key)
        buckets[key] = weight_by_mask[mask] if prior is None else prior + weight_by_mask[mask]

    return monomial_from_contents(buckets, n, AlphaPoly, lambda value: value)


def jack_chromatic(mu) -> SymFunc:
    """Chromatic-sum formula: hook-weighted chromatic symmetric functions.

    The formula sums w(H) X_H(x; 1) over the sandwich graphs G <= H <= G+,
    where G is the attacking graph, added edge i is the down-edge of a cell
    with hook h_i, and w(H) = prod over added edges of in_i = -h_i (edge in
    H) or out_i = 1 + h_i (not).  Every X_H is read off one coloring census
    of G in one ``from_census`` call, which audits each H for symmetry.
    """
    mu = check_partition(mu)
    data = attacking_data(mu)
    hooks = [hook_alpha(arm_u, leg_u) for (_, arm_u, leg_u) in data.down_edges]
    weights = mask_products(AlphaPoly.one(), [(AlphaPoly.one() + hook, -hook) for hook in hooks])
    census = coloring_census(data.g, [edge for edge, _, _ in data.down_edges])
    total = SymFunc(sum(mu), "monomial", {}, AlphaPoly)
    for weight, x in zip(weights, from_census(census)):
        # X_H(x; 1): each coefficient's ascent polynomial at t = 1
        total = total + x.map_coeffs(lambda c: weight.scale(sum(c.terms.values())), AlphaPoly)
    return total


def wt_alpha(mu, rows) -> AlphaPoly:
    """Hook weight of an integral form tableau of type mu, given by its rows.

    Per down-edge {u, v}: multiply by 1+hook(u) when u sits immediately left
    of v, by -hook(u) when u sits immediately above v, and by 1 otherwise.
    """
    weight = AlphaPoly.one()
    for place, arm_u, leg_u in _down_edge_places(tuple(mu), rows):
        if place == "left":
            weight = weight * (AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        elif place == "top":
            weight = weight * (-hook_alpha(arm_u, leg_u))
    return weight


def jack_schur(mu) -> SymFunc:
    """Integral form tableau formula, Schur basis."""
    mu = check_partition(mu)
    coeffs: dict[tuple[int, ...], AlphaPoly] = {}
    for lam, rows in ift_enumerate(mu):
        w = wt_alpha(mu, rows)
        coeffs[lam] = coeffs.get(lam, AlphaPoly.zero()) + w
    return SymFunc(sum(mu), "schur", coeffs, AlphaPoly)


def jack_power(mu) -> SymFunc:
    """Edge-subset formula over all subsets S of the augmented attacking graph.

    Each subset is signed by its overlap with the attacking graph G and
    multiplies the plain hooks of its added edges, and lands on the power
    sum of its component sizes.  Signing by the full edge count with negated
    hooks is the same term for every S, since
    (-1)^|S| prod_{e in S-G} (-h_e) = (-1)^|S cap G| prod_{e in S-G} h_e.
    """
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    hooks = {edge: hook_alpha(arm_u, leg_u) for edge, arm_u, leg_u in data.down_edges}
    g_edges = data.g.edge_set()
    edges = data.g_plus.edges
    coeffs: dict[tuple[int, ...], AlphaPoly] = {}
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        weight = AlphaPoly.one()
        overlap = 0
        for edge in subset:
            if edge in g_edges:
                overlap += 1
            else:
                weight = weight * hooks[edge]
        if overlap % 2:
            weight = -weight
        lam = component_partition(UGraph(n, subset))
        prior = coeffs.get(lam)
        coeffs[lam] = weight if prior is None else prior + weight
    return SymFunc(n, "power", coeffs, AlphaPoly)
