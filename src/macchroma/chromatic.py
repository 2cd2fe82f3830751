"""Chromatic symmetric and quasisymmetric functions of labeled graphs.

Expansion routes implemented here:

* monomial basis by direct enumeration of proper colorings with palette n,
  ascent-weighted (``x_g``), plus the all-colorings variant (``llt_g``);
* Schur basis through graph tableaux for claw-free graphs (``x_g_schur``);
* power sum basis through block permutations free of graph descents and of
  nontrivial left-to-right graph maxima (``x_g_power``).

The block permutation sets N_lambda (``n_lambda``) and the LLT sets
N~_lambda (``n_tilde``) come from one generator, ``_block_permutations``,
which builds sigma position by position in lexicographic order and drops a
value as soon as it breaks a condition; every condition reads only the
prefix built so far, so the output is the n!-permutation filter's, in its
order.  Inversion sums over these sets are counted per inversion number
before one Laurent polynomial is built, and the t-factors of each lambda
((t-1)^j, the t-analogue and (t^k - 1) products) are built once per lambda.

The monomial routes share one enumeration, ``coloring_census``: the
colorings of a graph G, counted per exponent vector by their ascents on G
and by which of k added edges they leave monochromatic or ascending.  Every
sandwich graph H = G + (a subset of the added edges) is then read off that
census by ``from_census``: a coloring is H-proper iff no added edge of H is
monochromatic, and its H-ascents are its G-ascents plus the ascending added
edges of H.  ``x_g`` and ``llt_g`` are the case of no added edge.
``jack.jack_chromatic`` folds the same census by its monochromatic-edge
mask alone (``ColoringCensus.equal_mask_counts``).

Every census read off by ``from_census`` is audited for symmetry over full
exponent vectors before monomial coefficients are taken; an asymmetric
result means the graph is outside the class the expansion theorems cover,
and raises ``IdentityViolation``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .graphs import IdentityViolation, UGraph, all_colorings, is_claw_free, proper_colorings
from .rings import LaurentQT
from .shapes import partitions_of
from .symfunc import SymFunc, convert, omega, z_of

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
    "tableau_inv",
    "perm_inv",
    "BlockPermutation",
    "t_analogue",
    "ColoringCensus",
    "coloring_census",
    "from_census",
]


# ---------------------------------------------------------------------------
# Coloring census and monomial collection
# ---------------------------------------------------------------------------

class ColoringCensus(NamedTuple):
    """Palette-n colorings of a graph G, proper for G or all of them.

    ``counts`` is {exponent vector: {key: count}}; a coloring's key packs
    ``asc_G << 2k | equal_mask << k | ascent_mask``, where bit i of
    ``equal_mask`` (``ascent_mask``) is set when added edge i is
    monochromatic (an ascent) under it.
    """

    n: int
    k: int
    proper: bool
    counts: dict

    def equal_mask_counts(self, vec) -> dict[int, int]:
        """{equal_mask: count} over the colorings with exponent vector vec."""
        k = self.k
        folded: dict[int, int] = {}
        for key, count in self.counts.get(tuple(vec), {}).items():
            equal = key >> k & ((1 << k) - 1)
            folded[equal] = folded.get(equal, 0) + count
        return folded


def coloring_census(g: UGraph, added=(), proper: bool = True) -> ColoringCensus:
    """Count the colorings of g once for every sandwich graph g + added[mask].

    ``added`` lists k new edges of G+; each must join two distinct vertices
    of g that g does not already join, and appear once.
    """
    n = g.n
    k = len(added)
    edges = []
    seen = set()
    for i, (u, v) in enumerate(added):
        if u == v:
            raise ValueError(f"added edge ({u},{v}) is a loop")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"added edge ({u},{v}) outside vertex range 1..{n}")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise ValueError(f"added edge ({u},{v}) listed twice")
        if g.has_edge(u, v):
            raise ValueError(f"added edge ({u},{v}) is already an edge of the graph")
        seen.add((u, v))
        edges.append((u - 1, v - 1, 1 << (k + i), 1 << i))
    # one int per coloring: its exponent vector (n.bit_length() bits per
    # color) above its key, unpacked once per distinct value at the end
    low = 2 * k + len(g.edges).bit_length()
    width = n.bit_length()
    weight = [0] + [1 << (low + width * i) for i in range(n)]
    shift = 2 * k
    packed: dict[int, int] = {}
    source = proper_colorings(g, n) if proper else all_colorings(g, n)
    for coloring, asc in source:
        key = asc << shift
        for c in coloring:
            key += weight[c]
        for u, v, equal_bit, ascent_bit in edges:
            if coloring[u] == coloring[v]:
                key |= equal_bit
            elif coloring[u] < coloring[v]:
                key |= ascent_bit
        packed[key] = packed.get(key, 0) + 1
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for key, count in packed.items():
        vec = tuple(key >> (low + width * i) & ((1 << width) - 1) for i in range(n))
        counts.setdefault(vec, {})[key & ((1 << low) - 1)] = count
    return ColoringCensus(n, k, proper, counts)


def _rearrangement_count(typ) -> int:
    mult: dict[int, int] = {}
    for x in typ:
        mult[x] = mult.get(x, 0) + 1
    count = factorial(len(typ))
    for m in mult.values():
        count //= factorial(m)
    return count


def _audit_symmetry(census, n, what: str):
    groups: dict[tuple[int, ...], list] = {}
    for vec, hist in census.items():
        groups.setdefault(tuple(sorted(vec, reverse=True)), []).append(hist)
    for typ, hists in groups.items():
        first = hists[0]
        if any(h != first for h in hists[1:]) or len(hists) != _rearrangement_count(typ):
            raise IdentityViolation(f"{what} not symmetric (type {typ})")


def _census_to_monomial(census, n: int, with_t: bool) -> SymFunc:
    coeffs = {}
    for lam in partitions_of(n):
        hist = census.get(lam + (0,) * (n - len(lam)))
        if not hist:
            continue
        if with_t:
            coeffs[lam] = LaurentQT({(0, asc): Fraction(c) for asc, c in hist.items()})
        else:
            coeffs[lam] = LaurentQT.from_int(sum(hist.values()))
    return SymFunc(n, "monomial", coeffs, LaurentQT)


def from_census(census: ColoringCensus, mask: int = 0, with_t: bool = True) -> SymFunc:
    """X_H (a proper census) or LLT_H (an all-colorings census) in the
    monomial basis, for H = G plus the added edges whose bits are set in
    ``mask``; ``with_t`` as in ``x_g``."""
    n, k = census.n, census.k
    if not 0 <= mask < 1 << k:
        raise ValueError(f"mask {mask} selects edges beyond the {k} added ones")
    shift = 2 * k
    hists = {}
    for vec, counts in census.counts.items():
        hist: dict[int, int] = {}
        for key, count in counts.items():
            if census.proper and key >> k & mask:
                continue
            asc = (key >> shift) + (key & mask).bit_count()
            hist[asc] = hist.get(asc, 0) + count
        if hist:
            hists[vec] = hist
    _audit_symmetry(hists, n, "X_H" if census.proper else "LLT_G")
    return _census_to_monomial(hists, n, with_t)


def x_g(h: UGraph, with_t: bool = True) -> SymFunc:
    """Chromatic (quasi)symmetric function in the monomial basis.

    With ``with_t`` the coefficient of each monomial is the ascent generating
    polynomial in t; without it every coloring counts 1.  This is
    ``from_census`` of h's own census, with no added edge.
    """
    if h.n == 0:
        return SymFunc(0, "monomial", {(): LaurentQT.one()}, LaurentQT)
    return from_census(coloring_census(h), with_t=with_t)


def llt_g(h: UGraph) -> SymFunc:
    """Ascent generating function over all (not necessarily proper) colorings;
    ``from_census`` of h's all-colorings census, with no added edge."""
    if h.n == 0:
        return SymFunc(0, "monomial", {(): LaurentQT.one()}, LaurentQT)
    return from_census(coloring_census(h, proper=False))


# ---------------------------------------------------------------------------
# Graph tableaux and the Schur expansion
# ---------------------------------------------------------------------------

def graph_tableaux(shape, n: int, horiz: UGraph, vert: UGraph):
    """Yield bijective fillings of a French shape under graph constraints.

    Rows increase left to right; horizontally adjacent entries must not be an
    edge of ``horiz``; for ``u`` directly above ``v``, either u > v or {u,v}
    is an edge of ``vert``.  Cells are filled bottom row first, left to
    right, trying values in ascending order, so the output order is fixed.
    """
    shape = tuple(shape)
    if sum(shape) != n:
        raise ValueError("shape size must equal n")
    rows = [[0] * width for width in shape]
    used = [False] * (n + 1)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def place(idx):
        if idx == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[idx]
        left = rows[r][c - 1] if c > 0 else 0
        below = rows[r - 1][c] if r > 0 else 0
        for val in range(left + 1, n + 1):
            if used[val]:
                continue
            if left and horiz.has_edge(left, val):
                continue
            if below and val < below and not vert.has_edge(val, below):
                continue
            rows[r][c] = val
            used[val] = True
            yield from place(idx + 1)
            used[val] = False
        rows[r][c] = 0

    yield from place(0)


def tableau_inv(rows, graph: UGraph) -> int:
    """Edges {u,v}, u < v, whose smaller endpoint sits in a strictly higher row."""
    row_of = {}
    for r, row in enumerate(rows):
        for val in row:
            row_of[val] = r
    return sum(1 for u, v in graph.edges if row_of[u] > row_of[v])


def x_g_schur(h: UGraph) -> SymFunc:
    """Schur expansion of X_H(x;t) via graph tableaux; requires claw-free H."""
    if not is_claw_free(h):
        raise ValueError("graph has an induced claw; Schur tableau expansion needs claw-free input")
    n = h.n
    coeffs = {}
    for lam in partitions_of(n):
        total = LaurentQT.zero()
        for rows in graph_tableaux(lam, n, h, h):
            total = total + LaurentQT.term(1, 0, tableau_inv(rows, h))
        if not total.is_zero():
            coeffs[lam] = total
    return SymFunc(n, "schur", coeffs, LaurentQT)


# ---------------------------------------------------------------------------
# Block permutations and the power sum expansion
# ---------------------------------------------------------------------------

class BlockPermutation:
    """A permutation in one-line notation cut into blocks of lengths lam."""

    __slots__ = ("lam", "sigma", "block_of")

    def __init__(self, lam, sigma):
        lam = tuple(lam)
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(1, sum(lam) + 1)):
            raise ValueError("sigma must be a permutation of 1..n")
        block_of = []
        for b, length in enumerate(lam):
            block_of.extend([b] * length)
        self.lam = lam
        self.sigma = sigma
        self.block_of = tuple(block_of)

    @classmethod
    def _of_generated(cls, lam: tuple, sigma: tuple, block_of: tuple) -> "BlockPermutation":
        """One built by ``_block_permutations``, whose sigma is a permutation
        by construction, sharing its block_of tuple."""
        self = object.__new__(cls)
        self.lam, self.sigma, self.block_of = lam, sigma, block_of
        return self

    def __eq__(self, other):
        return (
            isinstance(other, BlockPermutation)
            and self.lam == other.lam
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.lam, self.sigma))

    def __repr__(self):
        return f"BlockPermutation(lam={self.lam}, sigma={self.sigma})"


def _graph_descent_at(sigma, block_of, j: int, h: UGraph) -> bool:
    """Whether positions j-1 and j (0-based) of one block hold a graph
    descent: sigma[j-1] > sigma[j] and the two are not joined in h."""
    return (
        j > 0
        and block_of[j] == block_of[j - 1]
        and sigma[j - 1] > sigma[j]
        and not h.has_edge(sigma[j], sigma[j - 1])
    )


def _has_graph_descent(sigma, block_of, h: UGraph) -> bool:
    return any(_graph_descent_at(sigma, block_of, j, h) for j in range(1, len(sigma)))


def _nontrivial_lr_max_at(sigma, block_of, j: int, h: UGraph) -> bool:
    """Whether position j (0-based) holds a nontrivial left-to-right graph
    maximum: j is not the first position of its block, and every earlier
    entry of the block is smaller than sigma[j] and not joined to it in h."""
    if j == 0 or block_of[j] != block_of[j - 1]:
        return False
    i = j - 1
    while i >= 0 and block_of[i] == block_of[j]:
        if sigma[i] > sigma[j] or h.has_edge(sigma[i], sigma[j]):
            return False
        i -= 1
    return True


def _has_nontrivial_lr_maximum(sigma, block_of, h: UGraph) -> bool:
    # block starts are skipped before the call: wt_p runs this on every permutation
    for j in range(1, len(sigma)):
        if block_of[j] == block_of[j - 1] and _nontrivial_lr_max_at(sigma, block_of, j, h):
            return True
    return False


def _block_permutations(h: UGraph, lam, rejects) -> list:
    """Block permutations of h's vertices into blocks of lengths lam, in
    lexicographic order of sigma, that ``rejects(h, sigma, block_of, start,
    j)`` passes at no position j past the first of its block (which begins
    at position ``start``).

    sigma is built one position at a time, trying values in ascending
    order, and a value is dropped on insertion.  That yields exactly the
    permutations a full scan of all n! would keep, in the same order,
    because every condition reads sigma[:j+1] only: a rejected prefix has
    no accepted completion.
    """
    lam = tuple(lam)
    n = sum(lam)
    if n != h.n:
        raise ValueError("partition size must equal vertex count")
    block_of = []
    start_of = []
    for b, length in enumerate(lam):
        block_of.extend([b] * length)
        start_of.extend([len(start_of)] * length)
    block_of = tuple(block_of)
    sigma = [0] * n
    used = [False] * (n + 1)
    out = []

    def place(j):
        if j == n:
            out.append(BlockPermutation._of_generated(lam, tuple(sigma), block_of))
            return
        start = start_of[j]
        for val in range(1, n + 1):
            if used[val]:
                continue
            sigma[j] = val
            if j != start and rejects(h, sigma, block_of, start, j):
                continue
            used[val] = True
            place(j + 1)
            used[val] = False

    place(0)
    return out


def _lambda_rejects(h, sigma, block_of, start, j) -> bool:
    return _graph_descent_at(sigma, block_of, j, h) or _nontrivial_lr_max_at(sigma, block_of, j, h)


def n_lambda(h: UGraph, lam) -> list:
    """Permutations with no graph descents and no nontrivial LR graph maxima."""
    return _block_permutations(h, lam, _lambda_rejects)


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
    """Sum of t^perm_inv over a list of block permutations, counted per
    inversion number first."""
    hist: dict[int, int] = {}
    for bp in perms:
        inv = perm_inv(h, bp.sigma)
        hist[inv] = hist.get(inv, 0) + 1
    return LaurentQT({(0, inv): count for inv, count in hist.items()})


def x_g_power(h: UGraph) -> SymFunc:
    """Power sum expansion of omega X_H(x;t); the caller un-omegas to compare."""
    n = h.n
    coeffs = {}
    for lam in partitions_of(n):
        total = _inversion_sum(h, n_lambda(h, lam))
        if not total.is_zero():
            coeffs[lam] = total.scale(Fraction(1, z_of(lam)))
    return SymFunc(n, "power", coeffs, LaurentQT)


# ---------------------------------------------------------------------------
# LLT power sum formulas and the plethystic identity
# ---------------------------------------------------------------------------

def _tilde_rejects(h, sigma, block_of, start, j) -> bool:
    # below the block's first entry, or an in-block ascent that is no edge
    return sigma[j] < sigma[start] or (
        sigma[j - 1] < sigma[j] and not h.has_edge(sigma[j - 1], sigma[j])
    )


def n_tilde(h: UGraph, lam) -> list:
    """Block permutations whose blocks start at their minimum and whose
    in-block ascents are edges of h.

    Note: the consecutive-ascent condition must read "is an edge"; the
    non-edge reading contradicts the divided form already at two vertices.
    """
    return _block_permutations(h, lam, _tilde_rejects)


def t_analogue(k: int) -> LaurentQT:
    """1 + t + ... + t^(k-1)."""
    return LaurentQT({(0, i): Fraction(1) for i in range(k)})


@lru_cache(maxsize=256)
def _lambda_factors(lam) -> tuple[LaurentQT, LaurentQT, LaurentQT]:
    """(t-1)^(n - len(lam)), prod [part]_t and prod (t^part - 1) for a
    partition lam of n, built once per lam; the values are immutable, so
    every sandwich graph shares them.  The cache holds the last 256
    partitions, every partition of n <= 10."""
    t_minus_1 = LaurentQT.parse("-1 + t")
    analogue = LaurentQT.one()
    den = LaurentQT.one()
    for part in lam:
        analogue = analogue * t_analogue(part)
        den = den * (LaurentQT.term(1, 0, part) - LaurentQT.one())
    return t_minus_1 ** (sum(lam) - len(lam)), analogue, den


def llt_power_tilde(h: UGraph) -> SymFunc:
    """omega LLT in the power basis from the tilde permutation sets."""
    n = h.n
    coeffs = {}
    for lam in partitions_of(n):
        total = _inversion_sum(h, n_tilde(h, lam))
        value = _lambda_factors(lam)[0] * total
        coeffs[lam] = value.scale(Fraction(1, z_of(lam)))
    return SymFunc(n, "power", coeffs, LaurentQT)


def verify_plethysm(h: UGraph) -> bool:
    """Cross-check every LLT power sum route of h against direct enumeration.

    Checks, for every lambda, each quotient cleared of its denominator so
    that both sides are Laurent polynomials:
      1. the tilde formula equals omega of the enumerated LLT,
      2. the N_lambda inversion sum, divided by the product of the
         t-analogues of the parts, equals the same,
      3. coefficientwise, LLT equals (t-1)^n X[p_k -> p_k/(t^k - 1)],
      4. each N_lambda inversion sum is exactly divisible by the product of
         the t-analogues of the parts.
    """
    return _plethysm_holds(h, llt_g(h), x_g(h))


def _plethysm_holds(h: UGraph, llt: SymFunc, x: SymFunc) -> bool:
    """``verify_plethysm`` given h's monomial LLT_H and X_H, for callers that
    read them off a shared census.  LLT_H goes to the power basis once, and
    each N_lambda sum and t-analogue product serves checks 2 and 4 alike."""
    n = h.n
    llt_power = convert(llt, "power")
    direct = omega(llt_power)
    tilde = llt_power_tilde(h)
    x_power = convert(x, "power")
    t_minus_1_to_n = _lambda_factors((1,) * n)[2]  # prod (t^1 - 1) over n parts

    for lam in partitions_of(n):
        want = direct.get(lam)
        total = _inversion_sum(h, n_lambda(h, lam))
        t_minus_1_power, analogue, den = _lambda_factors(lam)
        # check 2 as num/z_lambda = want * prod [part]_t
        num = t_minus_1_power * total
        if tilde.get(lam) != want or num.scale(Fraction(1, z_of(lam))) != want * analogue:
            return False
        # plethystic identity LLT = (t-1)^n X[x/(t-1)], as
        # LLT_lambda * prod (t^part - 1) = X_lambda * (t-1)^n
        if llt_power.get(lam) * den != x_power.get(lam) * t_minus_1_to_n:
            return False
        # divisibility of the N_lambda sum by the t-analogue product
        try:
            total.exact_div(analogue)
        except ArithmeticError:
            return False
    return True
