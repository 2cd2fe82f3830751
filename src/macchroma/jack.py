"""Jack polynomials by four routes, with coefficients polynomial in the
deformation parameter.

The routes mirror the q,t case: Knop-Sahi non-attacking fillings (the
reference route), a chromatic-sum formula over sandwich graphs, an integral
form tableau Schur formula, and an edge-subset power sum formula.  Every
weight is a product of hooks ``a*(leg+1) + arm`` attached to the upper cell
of a down-edge.  As with the q,t case, the output index is the conjugate of
the input diagram.

The chromatic-sum route does its sum over sandwich graphs through one
factor per down-edge: one coloring census of the attacking graph
(``coloring_census``) counts colorings per content and per pattern of
monochromatic down-edges, and each pattern is weighted once.
"""

from __future__ import annotations

# x_g is not called here; the name stays importable from jack because
# perfbench's tracer self-tests check that every reference to it is wrapped
from .chromatic import coloring_census, x_g  # noqa: F401
from .graphs import IdentityViolation, UGraph, attacking_data, component_partition
from .macdonald import IFTableau, ift_enumerate, non_attacking_fillings
from .rings import AlphaPoly
from .shapes import check_partition, partitions_of
from .symfunc import SymFunc


def hook_alpha(arm: int, leg: int) -> AlphaPoly:
    """a*(leg+1) + arm."""
    return AlphaPoly({(1,): leg + 1, (0,): arm})


def _hooks_by_edge(mu):
    data = attacking_data(mu)
    return {edge: hook_alpha(arm_u, leg_u) for edge, arm_u, leg_u in data.down_edges}


def jack_knop_sahi(mu) -> SymFunc:
    """Knop-Sahi filling formula, monomial basis."""
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        return SymFunc(0, "monomial", {(): AlphaPoly.one()}, AlphaPoly)
    data = attacking_data(mu)
    k = len(data.down_edges)
    one_plus_hook = [
        AlphaPoly.one() + hook_alpha(arm_u, leg_u) for (_, arm_u, leg_u) in data.down_edges
    ]
    weight_by_mask = [AlphaPoly.one()] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        weight_by_mask[mask] = weight_by_mask[mask ^ (1 << low)] * one_plus_hook[low]

    buckets: dict[tuple[int, ...], AlphaPoly] = {}
    for values, _maj, _inv, _arm_des, mask in non_attacking_fillings(mu):
        vec = [0] * n
        for val in values:
            vec[val - 1] += 1
        key = tuple(vec)
        prior = buckets.get(key)
        buckets[key] = weight_by_mask[mask] if prior is None else prior + weight_by_mask[mask]

    coeffs = {}
    for lam in partitions_of(n):
        value = buckets.get(lam + (0,) * (n - len(lam)))
        if value is not None and not value.is_zero():
            coeffs[lam] = value
    return SymFunc(n, "monomial", coeffs, AlphaPoly)


def jack_chromatic(mu) -> SymFunc:
    """Chromatic-sum formula: hook-weighted chromatic symmetric functions.

    The formula sums w(H) X_H(x; 1) over the sandwich graphs G <= H <= G+,
    where G is the attacking graph, added edge i is the down-edge of a cell
    with hook h_i, and w(H) = prod over added edges of in_i = -h_i (edge in
    H) or out_i = 1 + h_i (not).  A G-proper coloring is H-proper iff no
    added edge of H is monochromatic under it, so summing over H first
    gives each G-proper coloring the weight prod_i f_i, with f_i = out_i
    when added edge i is monochromatic and f_i = out_i + in_i otherwise.
    One coloring census of G counts the colorings per content and per
    monochromatic-edge mask, so each mask is weighted once.  Only dominant
    contents are read; each must match its reversed content, as the
    symmetry of X_H requires, or ``IdentityViolation`` is raised.
    """
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        return SymFunc(0, "monomial", {(): AlphaPoly.one()}, AlphaPoly)
    data = attacking_data(mu)
    hooks = [hook_alpha(arm_u, leg_u) for (_, arm_u, leg_u) in data.down_edges]
    in_factor = [-hook for hook in hooks]
    out_factor = [AlphaPoly.one() + hook for hook in hooks]
    either = [out + inn for out, inn in zip(out_factor, in_factor)]
    census = coloring_census(data.g, [edge for edge, _, _ in data.down_edges])
    weight_of: dict[int, AlphaPoly] = {}
    coeffs = {}
    for lam in partitions_of(n):
        vec = lam + (0,) * (n - len(lam))
        folded = census.equal_mask_counts(vec)
        if folded != census.equal_mask_counts(vec[::-1]):
            raise IdentityViolation(f"chromatic sum of {mu} not symmetric (content {vec})")
        total = AlphaPoly.zero()
        for mask, count in folded.items():
            weight = weight_of.get(mask)
            if weight is None:
                weight = AlphaPoly.one()
                for i in range(census.k):
                    weight = weight * (out_factor[i] if mask >> i & 1 else either[i])
                weight_of[mask] = weight
            total = total + weight.scale(count)
        coeffs[lam] = total
    return SymFunc(n, "monomial", coeffs, AlphaPoly)


def wt_alpha(tableau: IFTableau) -> AlphaPoly:
    """Hook weight of an integral form tableau.

    Per down-edge {u, v}: multiply by 1+hook(u) when u sits immediately left
    of v, by -hook(u) when u sits immediately above v, and by 1 otherwise.
    """
    data = attacking_data(tableau.mu)
    pos = {}
    for r, row in enumerate(tableau.rows, start=1):
        for c, entry in enumerate(row, start=1):
            pos[entry] = (r, c)
    weight = AlphaPoly.one()
    for (u, v), arm_u, leg_u in data.down_edges:
        ru, cu = pos[u]
        rv, cv = pos[v]
        if ru == rv and cv == cu + 1:
            weight = weight * (AlphaPoly.one() + hook_alpha(arm_u, leg_u))
        elif ru == rv + 1 and cu == cv:
            weight = weight * (-hook_alpha(arm_u, leg_u))
    return weight


def jack_schur(mu) -> SymFunc:
    """Integral form tableau formula, Schur basis."""
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        return SymFunc(0, "schur", {(): AlphaPoly.one()}, AlphaPoly)
    coeffs: dict[tuple[int, ...], AlphaPoly] = {}
    for tableau in ift_enumerate(mu):
        w = wt_alpha(tableau)
        lam = tableau.shape
        coeffs[lam] = coeffs.get(lam, AlphaPoly.zero()) + w
    return SymFunc(n, "schur", coeffs, AlphaPoly)


def jack_power(mu, sign_on_total_edges: bool = False) -> SymFunc:
    """Edge-subset formula over all subsets of the augmented attacking graph.

    The default signs each subset by its overlap with the attacking graph and
    multiplies plain hooks; ``sign_on_total_edges`` switches to the
    equivalent form signed by the full edge count with negated hooks.
    """
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        return SymFunc(0, "power", {(): AlphaPoly.one()}, AlphaPoly)
    data = attacking_data(mu)
    hooks = _hooks_by_edge(mu)
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
            elif sign_on_total_edges:
                weight = weight * (-hooks[edge])
            else:
                weight = weight * hooks[edge]
        if sign_on_total_edges:
            sign = -1 if len(subset) % 2 else 1
        else:
            sign = -1 if overlap % 2 else 1
        if sign < 0:
            weight = -weight
        lam = component_partition(UGraph(n, subset))
        prior = coeffs.get(lam)
        coeffs[lam] = weight if prior is None else prior + weight
    return SymFunc(n, "power", coeffs, AlphaPoly)
