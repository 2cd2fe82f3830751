"""Degree-homogeneous symmetric functions over a generic coefficient ring.

A ``SymFunc`` is a basis-tagged map from partitions of its degree to
coefficients in one of the exact rings (LaurentQT or AlphaPoly).
Supported bases are monomial, Schur, and power sum; transitions between them
are exact and cached per degree in a ``TransitionTable``:

* Schur -> monomial through the Kostka matrix (semistandard tableau counts),
* monomial -> Schur by unitriangular back-substitution in descending
  lexicographic order (a linear extension of dominance); a nonzero residue
  raises ``IdentityViolation``,
* power -> monomial by expanding each p_k as m_(k) and multiplying out,
* monomial -> power by applying the exact rational inverse of that matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .rings import AlphaPoly, LaurentQT
from .shapes import IdentityViolation, conjugate, partitions_of

BASES = ("monomial", "schur", "power")

_RING_NAMES = {LaurentQT: "laurent_qt", AlphaPoly: "alpha"}


class SymFunc:
    """Homogeneous symmetric function: degree, basis tag, partition -> coeff."""

    __slots__ = ("degree", "basis", "coeffs", "ring")

    def __init__(self, degree, basis, coeffs, ring):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        tidy = {}
        for lam, c in coeffs.items():
            lam = tuple(lam)
            if sum(lam) != degree:
                raise ValueError(f"index {lam} is not a partition of {degree}")
            if not c.is_zero():
                tidy[lam] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = tidy
        self.ring = ring

    def get(self, lam):
        return self.coeffs.get(tuple(lam), self.ring.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale_coeffs(Fraction(-1))

    def mul_coeff(self, c) -> "SymFunc":
        """Multiply every coefficient by a fixed ring element."""
        return SymFunc(self.degree, self.basis, {lam: v * c for lam, v in self.coeffs.items()}, self.ring)

    def scale_coeffs(self, scalar: Fraction) -> "SymFunc":
        return SymFunc(self.degree, self.basis, {lam: v.scale(scalar) for lam, v in self.coeffs.items()}, self.ring)

    def map_coeffs(self, fn, ring=None) -> "SymFunc":
        return SymFunc(self.degree, self.basis, {lam: fn(v) for lam, v in self.coeffs.items()}, ring or self.ring)

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
    if not lam:
        return 1
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
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


# ---------------------------------------------------------------------------
# Monomial-basis multiplication (used to build power sum expansions)
# ---------------------------------------------------------------------------

def _distinct_permutations(counts_items):
    """Yield all distinct arrangements of a multiset given as (value, count)."""
    counts = dict(counts_items)
    total = sum(counts.values())
    arrangement = [0] * total

    def rec(pos):
        if pos == total:
            yield tuple(arrangement)
            return
        for val in sorted(counts, reverse=True):
            if counts[val] == 0:
                continue
            counts[val] -= 1
            arrangement[pos] = val
            yield from rec(pos + 1)
            counts[val] += 1

    yield from rec(0)


def _monomial_vectors(lam, nvars):
    """Exponent vectors on nvars variables whose sorted type is lam."""
    lam = tuple(lam)
    if len(lam) > nvars:
        return
    counts: dict[int, int] = {0: nvars - len(lam)}
    for part in lam:
        counts[part] = counts.get(part, 0) + 1
    yield from _distinct_permutations(counts.items())


def _expand_to_vectors(f: SymFunc, nvars: int) -> dict:
    vecs = {}
    for lam, c in f.coeffs.items():
        for vec in _monomial_vectors(lam, nvars):
            vecs[vec] = c
    return vecs


def multiply_monomial(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product of two monomial-basis SymFuncs, re-collected by type.

    Both are expanded into exponent vectors on deg(f)+deg(g) variables,
    convolved, and read back off the weakly decreasing representatives.
    """
    if f.basis != "monomial" or g.basis != "monomial":
        raise ValueError("multiply_monomial requires monomial-basis inputs")
    if f.ring is not g.ring:
        raise ValueError("ring mismatch")
    nvars = f.degree + g.degree
    if nvars == 0:
        c = f.get(()) * g.get(())
        return SymFunc(0, "monomial", {(): c}, f.ring)
    fv = _expand_to_vectors(f, nvars)
    gv = _expand_to_vectors(g, nvars)
    acc: dict[tuple[int, ...], object] = {}
    for va, ca in fv.items():
        for vb, cb in gv.items():
            key = tuple(x + y for x, y in zip(va, vb))
            prod = ca * cb
            if key in acc:
                acc[key] = acc[key] + prod
            else:
                acc[key] = prod
    out = {}
    for lam in partitions_of(f.degree + g.degree):
        rep = lam + (0,) * (nvars - len(lam))
        if rep in acc:
            out[lam] = acc[rep]
    return SymFunc(f.degree + g.degree, "monomial", out, f.ring)


# ---------------------------------------------------------------------------
# Transition tables
# ---------------------------------------------------------------------------

def _invert_rational_matrix(mat):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    size = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(size)]
            for i, row in enumerate(mat)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("transition matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[size:] for row in work]


class TransitionTable:
    """Per-degree basis transition data, computed once and then read-only."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.index = {lam: i for i, lam in enumerate(self.partitions)}
        self.kostka = [
            [kostka(lam, mu) for mu in self.partitions] for lam in self.partitions
        ]
        self.power_to_monomial = self._power_matrix()
        # monomial -> power applies the inverse of the transpose:
        # c_m[mu] = sum_lam c_p[lam] * P[lam][mu].
        transpose = [
            [Fraction(self.power_to_monomial[i][j]) for i in range(len(self.partitions))]
            for j in range(len(self.partitions))
        ]
        self.monomial_to_power = _invert_rational_matrix(transpose)

    def _power_matrix(self):
        ring = LaurentQT
        one = ring.one()
        rows = []
        for lam in self.partitions:
            prod = SymFunc(0, "monomial", {(): one}, ring)
            for part in lam:
                step = SymFunc(part, "monomial", {(part,): one}, ring)
                prod = multiply_monomial(prod, step)
            rows.append([
                int(prod.get(mu).constant_value()) if not prod.get(mu).is_zero() else 0
                for mu in self.partitions
            ])
        return rows


@lru_cache(maxsize=None)
def transition_table(n: int) -> TransitionTable:
    return TransitionTable(n)


# ---------------------------------------------------------------------------
# Basis conversion, omega, positivity
# ---------------------------------------------------------------------------

def _schur_to_monomial(f: SymFunc) -> SymFunc:
    table = transition_table(f.degree)
    out: dict[tuple[int, ...], object] = {}
    for lam, c in f.coeffs.items():
        i = table.index[lam]
        for j, mu in enumerate(table.partitions):
            k = table.kostka[i][j]
            if k:
                term = c.scale(Fraction(k))
                out[mu] = out[mu] + term if mu in out else term
    return SymFunc(f.degree, "monomial", out, f.ring)


def _monomial_to_schur(f: SymFunc) -> SymFunc:
    table = transition_table(f.degree)
    residue = dict(f.coeffs)
    out = {}
    for i, lam in enumerate(table.partitions):  # descending lex refines dominance
        c = residue.pop(lam, None)
        if c is None or c.is_zero():
            continue
        out[lam] = c
        for j, mu in enumerate(table.partitions):
            k = table.kostka[i][j]
            if k and mu != lam:
                prior = residue.get(mu, f.ring.zero())
                residue[mu] = prior - c.scale(Fraction(k))
    if any(not v.is_zero() for v in residue.values()):
        raise IdentityViolation(f"monomial to Schur back-substitution left a residue in degree {f.degree}")
    return SymFunc(f.degree, "schur", out, f.ring)


def _power_to_monomial(f: SymFunc) -> SymFunc:
    table = transition_table(f.degree)
    out: dict[tuple[int, ...], object] = {}
    for lam, c in f.coeffs.items():
        i = table.index[lam]
        for j, mu in enumerate(table.partitions):
            k = table.power_to_monomial[i][j]
            if k:
                term = c.scale(Fraction(k))
                out[mu] = out[mu] + term if mu in out else term
    return SymFunc(f.degree, "monomial", out, f.ring)


def _monomial_to_power(f: SymFunc) -> SymFunc:
    table = transition_table(f.degree)
    out = {}
    for i, lam in enumerate(table.partitions):
        acc = None
        for j, mu in enumerate(table.partitions):
            c = f.coeffs.get(mu)
            if c is None:
                continue
            scalar = table.monomial_to_power[i][j]
            if scalar:
                term = c.scale(scalar)
                acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out[lam] = acc
    return SymFunc(f.degree, "power", out, f.ring)


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact basis change; round-trips are identities."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    if f.basis == "schur":
        f = _schur_to_monomial(f)
    elif f.basis == "power":
        f = _power_to_monomial(f)
    if target == "monomial":
        return f
    if target == "schur":
        return _monomial_to_schur(f)
    return _monomial_to_power(f)


def omega(f: SymFunc) -> SymFunc:
    """The classical involution: s_lam -> s_lam', p_lam -> +/- p_lam."""
    if f.basis == "schur":
        return SymFunc(f.degree, "schur", {conjugate(lam): c for lam, c in f.coeffs.items()}, f.ring)
    if f.basis == "power":
        out = {}
        for lam, c in f.coeffs.items():
            sign = (f.degree - len(lam)) % 2
            out[lam] = c.scale(Fraction(-1)) if sign else c
        return SymFunc(f.degree, "power", out, f.ring)
    raise ValueError("convert first")


def schur_positive(f: SymFunc):
    """Check nonnegativity of a Schur-basis expansion over LaurentQT.

    Returns ``(True, None)`` when every coefficient has only nonnegative
    rational coefficients and no negative exponents, otherwise ``(False,
    (lam, term_string))`` for the first violation in canonical order.
    """
    if f.basis != "schur":
        raise ValueError("schur_positive requires the Schur basis")
    for lam in sorted(f.coeffs, reverse=True):
        c = f.coeffs[lam]
        for (qa, tb) in sorted(c.terms):
            coeff = c.terms[(qa, tb)]
            if coeff < 0 or qa < 0 or tb < 0:
                witness = str(LaurentQT({(qa, tb): coeff}))
                return False, (lam, witness)
    return True, None
