"""Four independent computations of the integral form Macdonald polynomial.

All four return the polynomial indexed by the conjugate of the input diagram
(the filling formulas naturally produce that indexing):

* ``j_hhl``        -- non-attacking fillings (the proper n-colorings of the
                      attacking graph) weighted by maj/inv statistics
                      (the defining route everything else is checked against),
* ``j_chromatic``  -- weighted sum of chromatic quasisymmetric functions over
                      the sandwich graphs between the attacking graph and its
                      augmentation,
* ``j_schur``      -- integral form tableaux with q,t edge weights, one
                      factor per down-edge place (``_down_edge_places``),
* ``j_power``      -- block permutations with case-by-case edge weights.

``ROUTES`` names the routes by CLI method, reference first.

Intermediate values are Laurent (negative t-exponents appear inside both the
filling and tableau weights); the final expansions must come out polynomial,
and ``j_chromatic`` raises ``IdentityViolation`` if they do not.
"""

from __future__ import annotations

from fractions import Fraction

from .chromatic import (
    IdentityViolation,
    _block_starts,
    _lambda_rejects,
    _nontrivial_lr_max_at,
    _omega_power,
    graph_tableaux,
    n_lambda,
    perm_inv,
    x_g,
)
from .graphs import attacking_data, colorings, sandwich_graphs
from .rings import LaurentQT, mask_products
from .shapes import check_partition, conjugate, n_stat, partitions_of
from .symfunc import SymFunc, monomial_from_contents

ONE_MINUS_T = LaurentQT.parse("1 - t")


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _one_minus_qt(q_exp: int, t_exp: int) -> LaurentQT:
    """1 - q^q_exp * t^t_exp."""
    return LaurentQT.one() - LaurentQT.term(1, q_exp, t_exp)


def prefactor(mu) -> LaurentQT:
    """t^(-n(mu') + C(mu_1, 2)) * (1 - t)^mu_1."""
    mu = check_partition(mu)
    mu1 = max(mu, default=0)
    return LaurentQT.term(1, 0, -n_stat(conjugate(mu)) + _binom2(mu1)) * ONE_MINUS_T ** mu1


# ---------------------------------------------------------------------------
# Non-attacking fillings (shared with the Jack module)
# ---------------------------------------------------------------------------

def non_attacking_fillings(mu):
    """Yield (values, maj, inv_pairs, arm_des, equal_mask) over non-attacking
    fillings: the proper colorings of the attacking graph G with palette
    {1..n}, in ``graphs.colorings`` order.

    ``values[label-1]`` is the entry of the reading-order cell ``label``.
    ``equal_mask`` has bit i set when the i-th down-edge's upper cell
    carries the same value as the cell below it.  maj adds leg(u)+1 for
    every descent cell (value exceeds the value below); ``inv_pairs`` counts
    attacking pairs (u earlier in reading order) with value(u) > value(v),
    i.e. |E(G)| minus the ascents; ``arm_des`` sums arm(u) over the descent
    cells.  The filling statistic in the t-exponent is inv_pairs - arm_des:
    the plain pair count overshoots by exactly the descent arms, which is
    visible as a stray negative t-power already at the 2x2 square shape.
    """
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    pairs = len(data.g.edges)
    down = [(u - 1, v - 1, leg + 1, arm, 1 << i)
            for i, ((u, v), arm, leg) in enumerate(data.down_edges)]
    for values, asc in colorings(data.g, n):
        maj = arm_des = mask = 0
        for u, v, leg1, arm, bit in down:
            if values[u] > values[v]:
                maj += leg1
                arm_des += arm
            elif values[u] == values[v]:
                mask |= bit
        yield values, maj, pairs - asc, arm_des, mask


def j_hhl(mu) -> SymFunc:
    """Haglund-Haiman-Loehr filling formula, monomial basis.  A cell weighs
    1 - t, or 1 - q^(leg+1) t^(arm+1) if it equals the cell below it."""
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    nz = n_stat(conjugate(mu))
    weight_by_mask = mask_products(
        ONE_MINUS_T ** (n - len(data.down_edges)),
        [(ONE_MINUS_T, _one_minus_qt(leg + 1, arm + 1)) for (_, arm, leg) in data.down_edges],
    )

    buckets: dict[tuple[int, ...], dict[tuple[int, int], Fraction]] = {}
    for values, maj, inv, arm_des, mask in non_attacking_fillings(mu):
        vec = [0] * n
        for val in values:
            vec[val - 1] += 1
        acc = buckets.setdefault(tuple(vec), {})
        t_shift = nz - (inv - arm_des)
        for (qa, tb), c in weight_by_mask[mask].terms.items():
            key = (qa + maj, tb + t_shift)
            s = acc.get(key, Fraction(0)) + c
            if s:
                acc[key] = s
            else:
                del acc[key]
    return monomial_from_contents(buckets, n, LaurentQT, LaurentQT)


def j_chromatic(mu) -> SymFunc:
    """Chromatic-sum formula over sandwich graphs, monomial basis."""
    mu = check_partition(mu)
    data = attacking_data(mu)
    weights = mask_products(LaurentQT.one(), [
        (_one_minus_qt(leg + 1, arm + 1), -_one_minus_qt(leg + 1, arm))
        for (_, arm, leg) in data.down_edges
    ])
    total = SymFunc(sum(mu), "monomial", {}, LaurentQT)
    for weight, h in zip(weights, sandwich_graphs(data)):
        total = total + x_g(h).mul_coeff(weight)
    result = total.mul_coeff(prefactor(mu))
    for lam, c in result.coeffs.items():
        if c.has_negative_exponents():
            raise IdentityViolation(f"Theorem identity violated: m_{lam} coefficient {c}")
    return result


# ---------------------------------------------------------------------------
# Integral form tableaux and the Schur formula
# ---------------------------------------------------------------------------

def ift_enumerate(mu):
    """Yield (shape, rows) for every integral form tableau of type mu, a
    bijective filling of a shape constrained by the attacking graphs of mu;
    ``rows`` is a tuple of row tuples, bottom row first (French convention).
    Shapes come in descending lex order."""
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    for lam in partitions_of(n):
        for rows in graph_tableaux(lam, data.g, data.g_plus):
            yield lam, rows


def _down_edge_places(mu, rows):
    """Yield (place, arm(u), leg(u)) per down-edge {u, v} of mu (a tuple),
    where place says where u sits relative to v in the tableau ``rows`` of
    type mu: "left" (immediately left of v in its row), "top" (directly on
    top of v), "higher" (elsewhere in a higher row) or "other"."""
    pos = {}
    for r, row in enumerate(rows, start=1):
        for c, entry in enumerate(row, start=1):
            pos[entry] = (r, c)
    for (u, v), arm_u, leg_u in attacking_data(mu).down_edges:
        ru, cu = pos[u]
        rv, cv = pos[v]
        if ru == rv and cv == cu + 1:
            place = "left"
        elif ru == rv + 1 and cu == cv:
            place = "top"
        elif ru > rv:
            place = "higher"
        else:
            place = "other"
        yield place, arm_u, leg_u


def wt_mu(mu, rows) -> LaurentQT:
    """q,t-weight of an integral form tableau of type mu, given by its rows.

    Each down-edge {u, v} contributes one factor picked by where u sits
    relative to v in the tableau (left-adjacent, directly on top, higher row,
    or anything else); the whole product is scaled by t to the number of
    attacking edges whose smaller label sits in a strictly higher row.  The
    rows increase, so those are the attacking-edge inversions of the rows
    read bottom row first.
    """
    mu = tuple(mu)
    weight = LaurentQT.term(1, 0, perm_inv(attacking_data(mu).g, sum(rows, ())))
    for place, arm_u, leg_u in _down_edge_places(mu, rows):
        if place == "left":
            factor = LaurentQT.term(1, 0, -arm_u) * _one_minus_qt(leg_u + 1, arm_u + 1)
        elif place == "top":
            factor = LaurentQT.term(-1, 0, -arm_u + 1) * _one_minus_qt(leg_u + 1, arm_u)
        elif place == "higher":
            factor = LaurentQT.term(1, 0, -arm_u) * ONE_MINUS_T
        else:
            factor = LaurentQT.term(1, leg_u + 1, 0) * ONE_MINUS_T
        weight = weight * factor
    return weight


def j_schur(mu) -> SymFunc:
    """Integral form tableau formula, Schur basis."""
    mu = check_partition(mu)
    scale = ONE_MINUS_T ** max(mu, default=0)
    coeffs: dict[tuple[int, ...], LaurentQT] = {}
    for lam, rows in ift_enumerate(mu):
        w = wt_mu(mu, rows)
        coeffs[lam] = coeffs.get(lam, LaurentQT.zero()) + w
    return SymFunc(sum(mu), "schur", {lam: c * scale for lam, c in coeffs.items()}, LaurentQT)


# ---------------------------------------------------------------------------
# Power sum formula
# ---------------------------------------------------------------------------

def wt_p(sigma, lam, mu) -> LaurentQT:
    """Weight of a block permutation in the power sum formula: sigma in
    one-line notation, cut into blocks of lengths lam.

    sigma must be a permutation of 1..n for n = |mu|, lam must sum to n, and
    the permutation must avoid graph descents and nontrivial left-to-right
    maxima with respect to the augmented attacking graph.  The weight is t to
    the number of inversion pairs lying on attacking-graph edges (the same
    role t^inv plays in the tableau weight) times one factor per down-edge
    {u, v}, picked by the first case that applies: v directly before u inside
    a block, v a nontrivial left-to-right maximum for the plain attacking
    graph, v anywhere before u, or u before v.
    """
    mu = check_partition(mu)
    data = attacking_data(mu)
    n = sum(mu)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma must be a permutation of 1..n")
    if sum(lam) != n:
        raise ValueError("block lengths must sum to n")
    start_of = _block_starts(lam)
    for j in range(1, n):
        if start_of[j] < j and _lambda_rejects(data.g_plus, sigma, start_of[j], j):
            raise ValueError("permutation outside N_lambda of the augmented attacking graph")
    pos_of = {val: i for i, val in enumerate(sigma)}
    weight = LaurentQT.term(1, 0, perm_inv(data.g, sigma))
    for (u, v), arm_u, leg_u in data.down_edges:
        pu, pv = pos_of[u], pos_of[v]
        if pu == pv + 1 and start_of[pu] == start_of[pv]:
            factor = LaurentQT.term(-1, 0, 1) * _one_minus_qt(leg_u + 1, arm_u)
        elif _nontrivial_lr_max_at(sigma, start_of[pv], pv, data.g):
            factor = -_one_minus_qt(leg_u + 1, arm_u)
        elif pv < pu:
            factor = ONE_MINUS_T
        else:
            factor = LaurentQT.term(1, leg_u + 1, arm_u) * ONE_MINUS_T
        weight = weight * factor
    return weight


def j_power(mu) -> SymFunc:
    """Block permutation formula, power basis (returns J itself, not omega J)."""
    mu = check_partition(mu)
    data = attacking_data(mu)
    pref = prefactor(mu)

    def coeff(lam):
        total = LaurentQT.zero()
        for sigma in n_lambda(data.g_plus, lam):
            total = total + wt_p(sigma, lam, mu)
        return total * pref

    return _omega_power(sum(mu), coeff)


ROUTES = {"hhl": j_hhl, "chromatic": j_chromatic, "tableaux": j_schur, "powersum": j_power}
