"""Degree-homogeneous symmetric functions over a generic coefficient ring.

A ``SymFunc`` is a basis-tagged map from partitions of its degree to
coefficients in one of the exact rings (LaurentQT or AlphaPoly).
Supported bases are monomial, Schur, and power sum; transitions between them
are exact and cached per degree in a ``TransitionTable``:

* Schur -> monomial through the Kostka matrix (semistandard tableau counts),
* power -> monomial through the integer matrix R, where R[lam][mu] counts
  the ways to merge the parts of lam into the parts of mu (Stanley,
  *Enumerative Combinatorics* Vol. 2, Prop. 7.7.1; Macdonald, *Symmetric
  Functions and Hall Polynomials*, Ch. I Section 6),
* monomial -> Schur by back-substitution on the Kostka matrix, unitriangular
  in descending lexicographic order (a linear extension of dominance); a
  nonzero residue raises ``IdentityViolation``,
* monomial -> power through the integer table of pairings <m_mu, p_lam>
  = z_lam [p_lam] m_mu (Macdonald, I Sections 4-6), built on first use by
  ``hall_table``: ``power_pairings`` takes every <f, p_lam> on integers, and
  the one division is the final 1/z_lam per coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .rings import AlphaPoly, LaurentQT, _exact
from .shapes import IdentityViolation, conjugate, partitions_of

BASES = ("monomial", "schur", "power")

_RING_NAMES = {LaurentQT: "laurent_qt", AlphaPoly: "alpha"}


class SymFunc:
    """Homogeneous symmetric function: degree, basis tag, partition -> coeff."""

    __slots__ = ("degree", "basis", "coeffs", "ring")

    def __init__(self, degree, basis, coeffs, ring):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        tidy = {}
        for lam, c in coeffs.items():
            lam = tuple(lam)
            # inline, not shapes.check_partition: every route builds SymFuncs
            if (sum(lam) != degree or (lam and lam[-1] < 1) or list(lam) != sorted(lam, reverse=True)
                    or not all(isinstance(part, int) for part in lam)):
                raise ValueError(f"index {lam} is not a partition of {degree}")
            if c.__class__ is not ring:
                raise TypeError(f"coefficient of {lam} is {type(c).__name__}, not {ring.__name__}")
            if not c.is_zero():
                tidy[lam] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = tidy
        self.ring = ring

    def get(self, lam):
        return self.coeffs.get(tuple(lam), self.ring.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymFunc)
            and self.degree == other.degree
            and self.basis == other.basis
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if (self.degree, self.basis, self.ring) != (other.degree, other.basis, other.ring):
            raise ValueError("can only add SymFuncs of equal degree, basis, and ring")
        acc = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            acc[lam] = acc.get(lam, self.ring.zero()) + c
        return SymFunc(self.degree, self.basis, acc, self.ring)

    def mul_coeff(self, c) -> "SymFunc":
        """Multiply every coefficient by a fixed ring element."""
        return SymFunc(self.degree, self.basis, {lam: v * c for lam, v in self.coeffs.items()}, self.ring)

    def ring_name(self) -> str:
        return _RING_NAMES[self.ring]

    def to_json_dict(self) -> dict:
        terms = [
            {"index": list(lam), "coeff": str(self.coeffs[lam])}
            for lam in sorted(self.coeffs, reverse=True)
        ]
        return {
            "object": "symfunc",
            "degree": self.degree,
            "basis": self.basis,
            "ring": self.ring_name(),
            "terms": terms,
        }

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        lines = []
        for lam in sorted(self.coeffs, reverse=True):
            index = f"({','.join(map(str, lam))})"
            lines.append(f"{index}: {self.coeffs[lam]}")
        return "\n".join(lines)

    def __repr__(self):
        return f"SymFunc(degree={self.degree}, basis={self.basis!r}, {len(self.coeffs)} terms)"


def monomial_from_contents(by_content, n: int, ring, coeff) -> SymFunc:
    """The monomial SymFunc over ``ring`` of a map {content: raw value}
    whose contents are padded with zeros to length n: for each partition
    lam of n, the m_lam coefficient is ``coeff(raw)`` of the value stored
    under padded lam, and a content the map lacks contributes nothing."""
    coeffs = {}
    for lam in partitions_of(n):
        raw = by_content.get(lam + (0,) * (n - len(lam)))
        if raw is not None:
            coeffs[lam] = coeff(raw)
    return SymFunc(n, "monomial", coeffs, ring)


# ---------------------------------------------------------------------------
# Kostka numbers
# ---------------------------------------------------------------------------

def kostka(lam, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Rows weakly increase left to right and columns strictly increase upward;
    the count is orientation-independent, so the filling runs over rows of
    lengths lam_1, lam_2, ... with the strict condition against the previous
    row.
    """
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content must have equal size")
    remaining = list(mu)
    nvals = len(mu)
    rows = [[0] * width for width in lam]

    def fill(r, c):
        if r == len(lam):
            return 1
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c > 0 else 1
        total = 0
        for val in range(lo, nvals + 1):
            if remaining[val - 1] == 0:
                continue
            if r > 0 and c < lam[r - 1] and rows[r - 1][c] >= val:
                continue
            rows[r][c] = val
            remaining[val - 1] -= 1
            total += fill(nr, nc)
            remaining[val - 1] += 1
        rows[r][c] = 0
        return total

    return fill(0, 0)


def z_of(lam) -> int:
    """Centralizer size of the cycle type lam: product of i^m_i * m_i!."""
    z = 1
    for part, m in Counter(lam).items():
        z *= part**m * factorial(m)
    return z


# ---------------------------------------------------------------------------
# Transition tables
# ---------------------------------------------------------------------------

def _merge_counts(partitions):
    """The p -> m matrix R of one degree, R[lam][mu] = [m_mu] p_lam.

    R[lam][mu] counts the ways to send each part of lam into a part of mu so
    that every part of mu is the sum of the parts it receives.  The count does
    not depend on the order of mu's parts, so the room left in them is kept
    sorted and the memo is shared by every pair.
    """
    memo = {}

    def count(parts, room):
        if not parts:
            return int(not any(room))
        key = (parts, room)
        if key not in memo:
            part, rest = parts[0], parts[1:]
            memo[key] = sum(
                count(rest, tuple(sorted(room[:j] + (cap - part,) + room[j + 1:], reverse=True)))
                for j, cap in enumerate(room) if cap >= part
            )
        return memo[key]

    return [[count(lam, mu) for mu in partitions] for lam in partitions]


class TransitionTable:
    """Per-degree basis transition data, computed once and then read-only.

    Every matrix is indexed [source][target] in the order of ``partitions``.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.index = {lam: i for i, lam in enumerate(self.partitions)}
        self.kostka = [
            [kostka(lam, mu) for mu in self.partitions] for lam in self.partitions
        ]
        self.power_to_monomial = _merge_counts(self.partitions)


@lru_cache(maxsize=16)
def transition_table(n: int) -> TransitionTable:
    """The transition data of degree n; the cache holds the last 16 degrees."""
    return TransitionTable(n)


@lru_cache(maxsize=16)
def hall_table(n: int) -> list:
    """The integers <m_mu, p_lam> = [h_mu] p_lam of degree n, indexed [mu][lam];
    column lam solves sum_nu R[kappa][nu] <m_nu, p_lam> = z_lam [kappa == lam]
    in partition order, where R is triangular.  It holds the last 16 degrees."""
    table = transition_table(n)
    columns = []
    for lam in table.partitions:
        col = []
        for kappa, merge in zip(table.partitions, table.power_to_monomial):
            rest = (z_of(lam) if kappa == lam else 0) - sum(map(mul, col, merge))
            entry, remainder = divmod(rest, merge[len(col)])
            if remainder:
                raise IdentityViolation(f"<m_{kappa}, p_{lam}> is not an integer")
            col.append(entry)
        columns.append(col)
    return list(zip(*columns))


# ---------------------------------------------------------------------------
# Basis conversion and omega
# ---------------------------------------------------------------------------

def _apply(f: SymFunc, matrix) -> dict:
    """{mu: sum over lam of f_lam * matrix[lam][mu]} for every partition mu,
    for a matrix indexed [source][target], with ints where integral."""
    table = transition_table(f.degree)
    acc = {mu: {} for mu in table.partitions}
    for lam, c in f.coeffs.items():
        for mu, k in zip(table.partitions, matrix[table.index[lam]]):
            if k:
                terms = acc[mu]
                for key, d in c.terms.items():
                    terms[key] = terms.get(key, 0) + k * d
    return {mu: f.ring({key: _exact(d) for key, d in terms.items()}) for mu, terms in acc.items()}


def _solve(f: SymFunc, matrix, order, basis: str) -> SymFunc:
    """Invert ``_apply`` for a matrix that is unitriangular in ``order``: each
    row reaches only its own partition, with entry 1, and those after it."""
    table = transition_table(f.degree)
    residue = dict(f.coeffs)
    out = {}
    for lam in order:
        c = residue.pop(lam, None)
        if c is None or c.is_zero():
            continue
        out[lam] = c
        for mu, k in zip(table.partitions, matrix[table.index[lam]]):
            if k and mu != lam:
                prior = residue.get(mu, f.ring.zero())
                residue[mu] = prior - c.scale(k)
    if any(not v.is_zero() for v in residue.values()):
        raise IdentityViolation(f"monomial to {basis} back-substitution left a residue in degree {f.degree}")
    return SymFunc(f.degree, basis, out, f.ring)


def power_pairings(f: SymFunc) -> dict:
    """{lam: <f, p_lam>} = {lam: z_lam [p_lam] f} for every lam |- n, with ints
    where integral: ``hall_table`` applied to f's monomial coefficients."""
    table = transition_table(f.degree)
    if f.basis == "power":
        return _apply(f, [[z_of(lam) * (mu == lam) for mu in table.partitions] for lam in table.partitions])
    return _apply(convert(f, "monomial"), hall_table(f.degree))


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact basis change; round-trips are identities."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    table = transition_table(f.degree)
    if f.basis != "monomial":
        matrix = table.kostka if f.basis == "schur" else table.power_to_monomial
        f = SymFunc(f.degree, "monomial", _apply(f, matrix), f.ring)
    if target == "monomial":
        return f
    if target == "schur":  # descending lex refines dominance
        return _solve(f, table.kostka, table.partitions, "schur")
    return SymFunc(f.degree, "power", {lam: v.scale(Fraction(1, z_of(lam)))
                                       for lam, v in power_pairings(f).items()}, f.ring)


def omega(f: SymFunc) -> SymFunc:
    """The classical involution: s_lam -> s_lam', p_lam -> +/- p_lam."""
    if f.basis == "schur":
        return SymFunc(f.degree, "schur", {conjugate(lam): c for lam, c in f.coeffs.items()}, f.ring)
    if f.basis == "power":
        out = {}
        for lam, c in f.coeffs.items():
            sign = (f.degree - len(lam)) % 2
            out[lam] = -c if sign else c
        return SymFunc(f.degree, "power", out, f.ring)
    raise ValueError("convert first")
