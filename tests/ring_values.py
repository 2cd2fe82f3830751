"""Helpers shared by the test modules.

``P`` and ``A`` read a q,t and a deformation-parameter polynomial from text;
the test modules import them from here, so this is the one place that names
the parser.
"""

from fractions import Fraction

from macchroma.rings import AlphaPoly, LaurentQT

P = LaurentQT.parse
A = AlphaPoly.parse


def constant_value(p) -> Fraction:
    """The value of a constant polynomial (every exponent zero)."""
    origin = (0,) * len(p.VARS)
    if set(p.terms) - {origin}:
        raise ValueError(f"not a constant polynomial: {p}")
    return p.terms.get(origin, Fraction(0))
