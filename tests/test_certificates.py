"""Characterization certificates: the routes' common answer is J.

Every other check compares one route with another, so a convention slip
shared by all routes (conjugate indexing, t against 1/t, the integral-form
normalisation) would pass them all.  The properties below pin the integral
form itself.  Route(mu) is J_nu with nu = mu', and arms and legs are those of
nu's cells:

* dominance triangularity in the monomial basis, with leading coefficient
  prod_s (1 - q^a t^(l+1)) for Macdonald (Ch. VI Section 8 of Macdonald,
  *Symmetric Functions and Hall Polynomials*) and prod_s (alpha*a + l + 1)
  for Jack (Stanley, *Some combinatorial properties of Jack symmetric
  functions*, 1989);
* for Jack, orthogonality under <p_lam, p_rho> = delta z_lam alpha^l(lam),
  with <J_nu, J_nu> = prod_s (alpha*a + l + 1)(alpha*(a + 1) + l).
"""

from itertools import accumulate

import pytest

from macchroma.jack import jack_knop_sahi
from macchroma.macdonald import j_schur
from macchroma.rings import AlphaPoly, LaurentQT
from macchroma.shapes import conjugate, partitions_of
from macchroma.symfunc import convert, z_of

MAX_N = 6


def _arms_and_legs(nu):
    cols = conjugate(nu)
    return [(row - j - 1, cols[j] - i - 1) for i, row in enumerate(nu) for j in range(row)]


def _dominated(lam, nu):
    """lam <= nu in dominance order (equal sizes)."""
    return all(a <= b for a, b in zip(accumulate(lam), accumulate(nu + (0,) * len(lam))))


def _alpha(c0, c1):
    return AlphaPoly({(0,): c0, (1,): c1})


def _assert_triangular(f, nu, leading):
    m = convert(f, "monomial")
    assert m.coeffs[nu] == leading, nu
    assert [lam for lam in m.coeffs if not _dominated(lam, nu)] == [], nu


@pytest.fixture(scope="module")
def jack_by_degree():
    return {n: {mu: jack_knop_sahi(mu) for mu in partitions_of(n)} for n in range(1, MAX_N + 1)}


def test_macdonald_is_triangular_with_leading_coefficient():
    for n in range(1, MAX_N + 1):
        for mu in partitions_of(n):
            nu = conjugate(mu)
            leading = LaurentQT.one()
            for a, l in _arms_and_legs(nu):
                leading = leading * (LaurentQT.one() - LaurentQT.term(1, a, l + 1))
            _assert_triangular(j_schur(mu), nu, leading)


def test_jack_is_triangular_with_leading_coefficient(jack_by_degree):
    for routes in jack_by_degree.values():
        for mu, f in routes.items():
            nu = conjugate(mu)
            leading = AlphaPoly.one()
            for a, l in _arms_and_legs(nu):
                leading = leading * _alpha(l + 1, a)
            _assert_triangular(f, nu, leading)


def test_jack_orthogonality_and_norms(jack_by_degree):
    for routes in jack_by_degree.values():
        power = {conjugate(mu): convert(f, "power") for mu, f in routes.items()}
        for nu, f in power.items():
            for rho, g in power.items():
                pairing = AlphaPoly.zero()
                for lam, c in f.coeffs.items():
                    if lam in g.coeffs:
                        weight = AlphaPoly({(len(lam),): z_of(lam)})
                        pairing = pairing + c * g.coeffs[lam] * weight
                if rho != nu:
                    assert pairing.is_zero(), (nu, rho)
                    continue
                norm = AlphaPoly.one()
                for a, l in _arms_and_legs(nu):
                    norm = norm * _alpha(l + 1, a) * _alpha(l, a + 1)
                assert pairing == norm, nu
