"""Chromatic symmetric and quasisymmetric functions of labeled graphs.

Expansion routes implemented here:

* monomial basis by direct enumeration of proper colorings with palette n,
  ascent-weighted (``x_g``), plus the all-colorings variant (``llt_g``);
* Schur basis through graph tableaux (``x_g_schur``), and power sum basis
  through block permutations free of graph descents and of nontrivial
  left-to-right graph maxima (``x_g_power``), for natural unit interval graphs.

One generator, ``_block_sequences``, enumerates the block permutation sets
N_lambda (``n_lambda``), the LLT sets N~_lambda (``n_tilde``) and the graph
tableaux (``graph_tableaux``, whose blocks are the rows, bottom row first).
It builds the sequence position by position in lexicographic order and
drops a value as soon as it breaks a condition; every condition reads only
the prefix built so far, so the output is the n!-permutation filter's, in
its order.  Inversion sums over these sets are counted per inversion number
before one Laurent polynomial is built, and the t-factors of each lambda
((t-1)^j, the t-analogue and (t^k - 1) products) are built once per lambda.
The power sum routes (``x_g_power``, ``llt_power_tilde``, ``j_power``)
share ``_omega_power``, which makes omega of sum c_lambda/z_lambda p_lambda, and
``verify_plethysm`` reads the first two rather than re-deriving them.

The monomial routes share one enumeration, ``coloring_census``: the
colorings of a graph G (``graphs.colorings`` with palette n, proper or all
of them), counted per exponent vector by their ascents on G and by which of
k added edges they leave monochromatic or ascending.  In the same call every
sandwich graph H = G + (a subset of the added edges) is read off those
counts: a coloring is H-proper iff no added edge of H is monochromatic, and
its H-ascents are its G-ascents plus the ascending added edges of H.  So one
call gives every sandwich graph, as a tuple indexed by mask.  ``x_g`` and
``llt_g`` are entry 0 of a census with no added edge (for the empty graph,
the one empty coloring), and ``jack.jack_chromatic`` sums the t = 1 values
X_H(x; 1) of the whole tuple.

Every sandwich graph ``coloring_census`` returns is audited for symmetry
over full exponent vectors before monomial coefficients are taken: every
rearrangement of a content must carry the same counts.  An asymmetric
result means the graph is outside the class the expansion theorems cover,
and raises ``IdentityViolation`` for the whole census.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .graphs import IdentityViolation, UGraph, colorings, hessenberg
from .rings import LaurentQT
from .shapes import check_partition, partitions_of
from .symfunc import SymFunc, monomial_from_contents, omega, power_pairings, z_of

__all__ = [
    "IdentityViolation",
    "x_g",
    "x_g_schur",
    "x_g_power",
    "llt_g",
    "llt_power_tilde",
    "verify_plethysm",
    "n_lambda",
    "n_tilde",
    "graph_tableaux",
    "perm_inv",
    "t_analogue",
    "coloring_census",
]


# ---------------------------------------------------------------------------
# Coloring census and monomial collection
# ---------------------------------------------------------------------------

def coloring_census(g: UGraph, added=(), proper: bool = True) -> tuple:
    """X_H (``proper``) or LLT_H (all colorings) in the monomial basis for
    every sandwich graph H = g + (a subset of ``added``), from one
    enumeration of g's palette-n colorings, as a tuple indexed by mask:
    entry ``mask`` is H = g plus the added edges whose bits are set in it.
    Each coefficient is the ascent generating polynomial in t; X_H(x; 1) is
    the sum of its coefficients.

    ``added`` lists k new edges of G+; each must join two distinct vertices
    of g that g does not already join, and appear once.
    """
    n = g.n
    k = len(added)
    if len(g.with_edges(added).edges) != len(g.edges) + k:  # loops and range raise there
        raise ValueError(f"added edges {list(added)} are not {k} distinct new edges of the graph")
    edges = [(min(u, v) - 1, max(u, v) - 1, 1 << (k + i), 1 << i) for i, (u, v) in enumerate(added)]
    # one int per coloring: its exponent vector (n.bit_length() bits per
    # color) above its key ``asc_G << 2k | equal_mask << k | ascent_mask``,
    # where bit i of equal_mask (ascent_mask) is set when added edge i is
    # monochromatic (an ascent) under it; unpacked once per distinct value
    low = 2 * k + len(g.edges).bit_length()
    width = n.bit_length()
    weight = [0] + [1 << (low + width * i) for i in range(n)]
    shift = 2 * k
    packed: dict[int, int] = {}
    for coloring, asc in colorings(g, n, proper):
        key = asc << shift
        for c in coloring:
            key += weight[c]
        for u, v, equal_bit, ascent_bit in edges:
            if coloring[u] == coloring[v]:
                key |= equal_bit
            elif coloring[u] < coloring[v]:
                key |= ascent_bit
        packed[key] = packed.get(key, 0) + 1
    counts: dict[tuple[int, ...], dict[int, int]] = {}  # {exponent vector: {key: count}}
    for key, count in packed.items():
        vec = tuple(key >> (low + width * i) & ((1 << width) - 1) for i in range(n))
        counts.setdefault(vec, {})[key & ((1 << low) - 1)] = count

    # a coloring is H-proper iff no added edge of H is monochromatic, and its
    # H-ascents are its G-ascents plus the ascending added edges of H
    full = (1 << k) - 1
    # the masks whose H leaves a coloring proper: those avoiding its equal bits
    avoiding = [[mask for mask in range(1 << k) if not equal & mask] for equal in range(1 << k)]
    hists = [{} for _ in range(1 << k)]  # per mask: {exponent vector: {ascents: count}}
    for vec, by_key in counts.items():
        by_mask = [{} for _ in hists]
        for key, count in by_key.items():
            asc_g = key >> shift
            for mask in avoiding[key >> k & full if proper else 0]:
                hist = by_mask[mask]
                asc = asc_g + (key & mask).bit_count()
                hist[asc] = hist.get(asc, 0) + count
        for by_vec, hist in zip(hists, by_mask):
            if hist:
                by_vec[vec] = hist
    for by_vec in hists:
        _audit_symmetry(by_vec, "X_H" if proper else "LLT_G")
    return tuple(monomial_from_contents(by_vec, n, LaurentQT, _t_poly) for by_vec in hists)


def _t_poly(hist) -> LaurentQT:
    """Sum of count * t^s over a histogram {s: count} of integer statistics,
    which the routes count per value before one Laurent polynomial is built."""
    return LaurentQT({(0, s): count for s, count in hist.items()})


def _rearrangement_count(typ) -> int:
    count = factorial(len(typ))
    for m in Counter(typ).values():
        count //= factorial(m)
    return count


def _audit_symmetry(census, what: str):
    groups: dict[tuple[int, ...], list] = {}
    for vec, hist in census.items():
        groups.setdefault(tuple(sorted(vec, reverse=True)), []).append(hist)
    for typ, hists in groups.items():
        first = hists[0]
        if any(h != first for h in hists[1:]) or len(hists) != _rearrangement_count(typ):
            raise IdentityViolation(f"{what} not symmetric (type {typ})")


def x_g(h: UGraph) -> SymFunc:
    """Chromatic quasisymmetric function X_H(x; t) in the monomial basis:
    each monomial's coefficient is the ascent generating polynomial in t
    of its proper colorings.  This is entry 0 of h's own
    ``coloring_census``, which has no added edge."""
    return coloring_census(h)[0]


def llt_g(h: UGraph) -> SymFunc:
    """Ascent generating function over all (not necessarily proper) colorings;
    entry 0 of h's all-colorings ``coloring_census``."""
    return coloring_census(h, proper=False)[0]


# ---------------------------------------------------------------------------
# Graph tableaux and the Schur expansion
# ---------------------------------------------------------------------------

def graph_tableaux(shape, horiz: UGraph, vert: UGraph):
    """Yield the fillings of a French shape by the vertices 1..n of both
    graphs, each once, under graph constraints, as tuples of rows, bottom
    row first; a shape that is not a partition (``check_partition``) or of
    another size raises ``ValueError``.

    Rows increase left to right; horizontally adjacent entries must not be an
    edge of ``horiz``; for ``u`` directly above ``v``, either u > v or {u,v}
    is an edge of ``vert``.  These are the block sequences whose blocks are
    the rows, so they come in lexicographic order of the rows read bottom
    row first.
    """
    shape = check_partition(shape)
    if horiz.n != vert.n:
        raise ValueError("the two graphs must have the same vertex count")
    starts = [sum(shape[:r]) for r in range(len(shape))]
    # below[j]: the position of the cell directly below position j; None in the bottom row
    below = [None] * sum(shape[:1]) + [lo + c for lo, width in zip(starts, shape[1:]) for c in range(width)]

    def rejects(sigma, start, j):
        val = sigma[j]
        if j > start and (val < sigma[j - 1] or horiz.has_edge(sigma[j - 1], val)):
            return True
        down = below[j]
        return down is not None and val < sigma[down] and not vert.has_edge(val, sigma[down])

    for sigma in _block_sequences(horiz.n, shape, rejects):
        yield tuple(sigma[lo:lo + width] for lo, width in zip(starts, shape))


def x_g_schur(h: UGraph) -> SymFunc:
    """Schur expansion of X_H(x;t) via graph tableaux, H passing
    ``graphs.hessenberg``: t counts the edges whose smaller end sits in a
    higher row, the inversions of the increasing rows read bottom row first."""
    hessenberg(h)
    coeffs = {lam: _inversion_sum(h, [sum(rows, ()) for rows in graph_tableaux(lam, h, h)])
              for lam in partitions_of(h.n)}
    return SymFunc(h.n, "schur", coeffs, LaurentQT)


# ---------------------------------------------------------------------------
# Block permutations and the power sum expansion
# ---------------------------------------------------------------------------

def _graph_descent_at(sigma, start, j: int, h: UGraph) -> bool:
    """Whether positions j-1 and j (0-based) of one block, which begins at
    position start, hold a graph descent: sigma[j-1] > sigma[j] and the two
    are not joined in h."""
    return j > start and sigma[j - 1] > sigma[j] and not h.has_edge(sigma[j], sigma[j - 1])


def _nontrivial_lr_max_at(sigma, start, j: int, h: UGraph) -> bool:
    """Whether position j (0-based) of a block that begins at position start
    holds a nontrivial left-to-right graph maximum: j is not the block's
    first position, and every earlier entry of the block is smaller than
    sigma[j] and not joined to it in h."""
    if j == start:
        return False
    for i in range(start, j):
        if sigma[i] > sigma[j] or h.has_edge(sigma[i], sigma[j]):
            return False
    return True


def _block_starts(lam) -> tuple:
    """The position where each position's block begins, for a sigma cut
    into blocks of lengths lam."""
    return tuple(sum(lam[:b]) for b, length in enumerate(lam) for _ in range(length))


def _block_sequences(n: int, lam, rejects) -> list:
    """Sequences of the values 1..n, each used once, cut into blocks of
    lengths lam, in lexicographic order, that ``rejects(sigma, start, j)``
    passes at every position j (its block begins at position ``start``;
    block starts are tested too).

    sigma is built one position at a time, trying values in ascending
    order, and a value is dropped on insertion.  That yields exactly the
    sequences a full scan of all n! would keep, in the same order, because
    every condition reads sigma[:j+1] only: a rejected prefix has no
    accepted completion.
    """
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError("partition size must equal vertex count")
    start_of = _block_starts(lam)
    sigma = [0] * n
    used = [False] * (n + 1)
    out = []

    def place(j):
        if j == n:
            out.append(tuple(sigma))
            return
        start = start_of[j]
        for val in range(1, n + 1):
            if used[val]:
                continue
            sigma[j] = val
            if rejects(sigma, start, j):
                continue
            used[val] = True
            place(j + 1)
            used[val] = False

    place(0)
    return out


def _lambda_rejects(h, sigma, start, j) -> bool:
    return _graph_descent_at(sigma, start, j, h) or _nontrivial_lr_max_at(sigma, start, j, h)


def n_lambda(h: UGraph, lam) -> list:
    """Permutations with no graph descents and no nontrivial LR graph maxima,
    as sigma tuples cut into blocks of lengths lam; h must pass
    ``graphs.hessenberg``."""
    hessenberg(h)
    return _block_sequences(h.n, lam, partial(_lambda_rejects, h))


def perm_inv(h: UGraph, sigma) -> int:
    """Inversions of sigma that are edges of h."""
    n = len(sigma)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if sigma[i] > sigma[j] and h.has_edge(sigma[j], sigma[i])
    )


def _inversion_sum(h: UGraph, perms) -> LaurentQT:
    """Sum of t^perm_inv over a list of block permutations (sigma tuples), in
    one pass per sigma: a value's inversions are its higher neighbours seen."""
    higher = [0] + [sum(1 << w for w in h.neighbors(v) if w > v) for v in range(1, h.n + 1)]
    hist = Counter()
    for sigma in perms:
        seen = inv = 0
        for v in sigma:
            inv += (seen & higher[v]).bit_count()
            seen |= 1 << v
        hist[inv] += 1
    return _t_poly(hist)


def _omega_power(n: int, coeff) -> SymFunc:
    """omega of the sum over lam |- n of coeff(lam)/z_lam p_lam: the power
    sum routes count omega of their function, block sequence by block
    sequence, and hand the lam-sum to this."""
    coeffs = {lam: coeff(lam).scale(Fraction(1, z_of(lam))) for lam in partitions_of(n)}
    return omega(SymFunc(n, "power", coeffs, LaurentQT))


def x_g_power(h: UGraph) -> SymFunc:
    """Power sum expansion of X_H(x;t), for H that passes ``graphs.hessenberg``:
    the N_lambda sums give omega X_H, and omega is applied here."""
    return _omega_power(h.n, lambda lam: _inversion_sum(h, n_lambda(h, lam)))


# ---------------------------------------------------------------------------
# LLT power sum formulas and the plethystic identity
# ---------------------------------------------------------------------------

def _tilde_rejects(h, sigma, start, j) -> bool:
    # below the block's first entry, or an in-block ascent that is no edge
    return j > start and (sigma[j] < sigma[start] or (
        sigma[j - 1] < sigma[j] and not h.has_edge(sigma[j - 1], sigma[j])
    ))


def n_tilde(h: UGraph, lam) -> list:
    """Block permutations, as sigma tuples cut into blocks of lengths lam,
    whose blocks start at their minimum and whose in-block ascents are
    edges of h.

    Note: the consecutive-ascent condition must read "is an edge"; the
    non-edge reading contradicts the divided form already at two vertices.
    h must pass ``graphs.hessenberg``.
    """
    hessenberg(h)
    return _block_sequences(h.n, lam, partial(_tilde_rejects, h))


def t_analogue(k: int) -> LaurentQT:
    """1 + t + ... + t^(k-1)."""
    return LaurentQT({(0, i): 1 for i in range(k)})


@lru_cache(maxsize=256)
def _lambda_factors(lam) -> tuple[LaurentQT, LaurentQT, LaurentQT]:
    """(t-1)^(n - len(lam)), prod [part]_t and prod (t^part - 1) for a
    partition lam of n, built once per lam; the values are immutable, so
    every sandwich graph shares them.  The cache holds the last 256
    partitions, every partition of n <= 10."""
    t_minus_1 = LaurentQT({(0, 0): -1, (0, 1): 1})
    analogue = LaurentQT.one()
    den = LaurentQT.one()
    for part in lam:
        analogue = analogue * t_analogue(part)
        den = den * (LaurentQT.term(1, 0, part) - LaurentQT.one())
    return t_minus_1 ** (sum(lam) - len(lam)), analogue, den


def llt_power_tilde(h: UGraph) -> SymFunc:
    """LLT_H in the power basis, for H that passes ``graphs.hessenberg``, from
    the tilde permutation sets, which give omega LLT_H; omega is applied here."""
    return _omega_power(h.n, lambda lam: _lambda_factors(lam)[0] * _inversion_sum(h, n_tilde(h, lam)))


def verify_plethysm(h: UGraph, llt: SymFunc, x: SymFunc) -> bool:
    """Cross-check h's power sum routes against h's monomial LLT_H and X_H
    (``llt_g(h)`` and ``x_g(h)``, or read off a shared census).

    With xp = ``x_g_power(h)`` (the N_lambda route, whose lam coefficient is
    (-1)^(n - len(lam)) times the N_lambda inversion sum over z_lam), checks,
    for every lambda, each quotient cleared of its denominator so that both
    sides are Laurent polynomials:
      1. the tilde formula (``llt_power_tilde(h)``) equals the enumerated LLT,
      2. xp_lam * (t-1)^(n - len(lam)) equals LLT_lam times the product of
         the t-analogues of the parts,
      3. coefficientwise, LLT equals (t-1)^n X[p_k -> p_k/(t^k - 1)],
      4. each xp_lam is exactly divisible by the product of the t-analogues
         of the parts (as the N_lambda inversion sum is; a rational unit
         does not change that).
    Coefficients are read times z_lam (``power_pairings``), on integers.
    """
    n = h.n
    llt_power = power_pairings(llt)
    tilde = power_pairings(llt_power_tilde(h))
    xp = power_pairings(x_g_power(h))
    x_power = power_pairings(x)
    t_minus_1_to_n = _lambda_factors((1,) * n)[2]  # prod (t^1 - 1) over n parts

    for lam in partitions_of(n):
        want = llt_power[lam]
        t_minus_1_power, analogue, den = _lambda_factors(lam)
        if tilde[lam] != want or xp[lam] * t_minus_1_power != want * analogue:
            return False
        # plethystic identity LLT = (t-1)^n X[x/(t-1)], as
        # LLT_lambda * prod (t^part - 1) = X_lambda * (t-1)^n
        if want * den != x_power[lam] * t_minus_1_to_n:
            return False
        try:
            xp[lam].exact_div(analogue)
        except ArithmeticError:
            return False
    return True
