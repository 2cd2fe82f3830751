"""Helpers shared by the test modules."""

from fractions import Fraction


def constant_value(p) -> Fraction:
    """The value of a constant polynomial (every exponent zero)."""
    origin = (0,) * len(p.VARS)
    if set(p.terms) - {origin}:
        raise ValueError(f"not a constant polynomial: {p}")
    return p.terms.get(origin, Fraction(0))
