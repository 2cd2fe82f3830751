"""Partitions, Ferrers diagrams, and per-cell statistics.

Diagrams use the French convention: row 1 is the bottom row and holds the
largest part, rows are indexed upward.  Reading order, by contrast, scans the
rows top to bottom and each row left to right, numbering cells 1..n; both
conventions are needed, so a ``Diagram`` caches both directions of the
cell/label correspondence.

The leg of a cell counts the cells strictly above it in its *column*.  (Some
sources phrase this as "above in its row", which reads as a typo; the column
count is what the arm/leg picture and every downstream identity require.)
"""

from __future__ import annotations

from functools import lru_cache


class IdentityViolation(ArithmeticError):
    """A theorem-level identity failed; signals a bug or an input outside scope."""


def check_partition(parts) -> tuple[int, ...]:
    """Validate and normalize a partition given as an iterable of parts."""
    mu = tuple(int(p) for p in parts)
    for i, p in enumerate(mu):
        if p <= 0:
            raise ValueError(f"partition parts must be positive, got {mu}")
        if i + 1 < len(mu) and mu[i + 1] > p:
            raise ValueError(f"partition parts must be weakly decreasing, got {mu}")
    return mu


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated CLI string like ``3,1`` into a partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}")
    return check_partition(parts)


def conjugate(mu) -> tuple[int, ...]:
    """Transpose of a partition: conjugate(mu)[i] = #{j : mu_j >= i+1}."""
    mu = tuple(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= i) for i in range(1, mu[0] + 1))


def n_stat(lam) -> int:
    """The statistic sum_i (i-1)*lam_i, equal to the total leg count."""
    lam = tuple(lam)
    value = sum(i * part for i, part in enumerate(lam))
    legs = sum(Diagram(lam).leg_by_label[v] for v in range(1, sum(lam) + 1))
    if value != legs:
        raise IdentityViolation(f"n-statistic definitions disagree for {lam}: {value} != {legs}")
    return value


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


class Diagram:
    """French Ferrers diagram of a partition with reading-order labels.

    Cells are (row, col) pairs, both 1-based, rows counted from the bottom.
    Labels 1..n follow reading order (top row first, left to right).
    Instances are immutable and cached per partition.
    """

    _cache: dict[tuple[int, ...], "Diagram"] = {}

    def __new__(cls, mu):
        mu = check_partition(mu)
        hit = cls._cache.get(mu)
        if hit is not None:
            return hit
        self = super().__new__(cls)
        self._build(mu)
        cls._cache[mu] = self
        return self

    def _build(self, mu):
        self.shape = mu
        self.n = sum(mu)
        rows = len(mu)
        cells = []
        for row in range(rows, 0, -1):          # top to bottom
            for col in range(1, mu[row - 1] + 1):
                cells.append((row, col))
        self.cells_by_label = tuple(cells)       # label v -> cell, index v-1
        self.label_by_cell = {cell: v + 1 for v, cell in enumerate(cells)}
        self.arm_by_label = {}
        self.leg_by_label = {}
        self.down_by_label = {}
        for v, (row, col) in enumerate(cells, start=1):
            self.arm_by_label[v] = mu[row - 1] - col
            self.leg_by_label[v] = sum(1 for r in range(row + 1, rows + 1) if mu[r - 1] >= col)
            if row > 1:
                self.down_by_label[v] = self.label_by_cell[(row - 1, col)]

    def cell(self, label: int) -> tuple[int, int]:
        return self.cells_by_label[label - 1]

    def contains(self, cell) -> bool:
        row, col = cell
        return 1 <= row <= len(self.shape) and 1 <= col <= self.shape[row - 1]

    def _check_cell(self, cell):
        if not self.contains(cell):
            raise ValueError(f"cell {cell} outside diagram of {self.shape}")

    def arm(self, cell) -> int:
        """Cells strictly to the right of ``cell`` in its row."""
        self._check_cell(cell)
        return self.arm_by_label[self.label_by_cell[cell]]

    def leg(self, cell) -> int:
        """Cells strictly above ``cell`` in its column."""
        self._check_cell(cell)
        return self.leg_by_label[self.label_by_cell[cell]]

    def down(self, cell):
        """The cell immediately below, or None on the bottom row."""
        self._check_cell(cell)
        row, col = cell
        return (row - 1, col) if row > 1 else None

    def attacking_pairs(self) -> tuple[tuple[int, int], ...]:
        """Label pairs (u, v), u earlier in reading order, of attacking cells.

        Cells attack when they share a row, or sit in adjacent rows with the
        upper cell strictly to the right of the lower one.
        """
        pairs = []
        n = self.n
        for u in range(1, n + 1):
            ru, cu = self.cells_by_label[u - 1]
            for v in range(u + 1, n + 1):
                rv, cv = self.cells_by_label[v - 1]
                if ru == rv:
                    pairs.append((u, v))
                elif ru == rv + 1 and cu > cv:
                    # u is read first, so it sits in the upper of the two rows
                    pairs.append((u, v))
        return tuple(pairs)

    def __repr__(self):
        return f"Diagram({list(self.shape)})"


def arm(mu, cell) -> int:
    return Diagram(mu).arm(cell)


def leg(mu, cell) -> int:
    return Diagram(mu).leg(cell)


def down(mu, cell):
    return Diagram(mu).down(cell)


def attacking_pairs(mu) -> tuple[tuple[int, int], ...]:
    return Diagram(mu).attacking_pairs()
