"""Partitions, their conjugates, and the statistic n(lambda).

The cell geometry of a partition (attacking graphs, arms and legs) lives in
``graphs.AttackingData``.
"""

from __future__ import annotations

from functools import lru_cache


class IdentityViolation(ArithmeticError):
    """A theorem-level identity failed; signals a bug or an input outside scope."""


def check_partition(parts) -> tuple[int, ...]:
    """Validate and normalize a partition given as an iterable of parts."""
    parts = tuple(parts)
    mu = tuple(int(p) for p in parts)
    if mu != parts:
        raise ValueError(f"partition parts must be integers, got {parts}")
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
    return tuple(sum(1 for p in mu if p >= i) for i in range(1, max(mu, default=0) + 1))


def n_stat(lam) -> int:
    """The statistic sum_i (i-1)*lam_i, equal to sum_j C(lam'_j, 2) over the
    columns (the total leg count)."""
    lam = tuple(lam)
    value = sum(i * part for i, part in enumerate(lam))
    legs = sum(col * (col - 1) // 2 for col in conjugate(lam))
    if value != legs:
        raise IdentityViolation(f"n-statistic definitions disagree for {lam}: {value} != {legs}")
    return value


@lru_cache(maxsize=32)
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
