import random
from fractions import Fraction

import pytest

from macchroma.rings import AlphaPoly, InexactDivision, LaurentQT, mask_products

P = LaurentQT.parse
A = AlphaPoly.parse


def random_laurent(rng, max_terms=4, span=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-span, span), rng.randint(-span, span))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LaurentQT(terms)


def random_alpha(rng, max_terms=3, span=4):
    return AlphaPoly({(rng.randint(0, span),): rng.randint(-9, 9) for _ in range(rng.randint(1, max_terms))})


def _nonzero(make, rng):
    while (p := make(rng)).is_zero():
        pass
    return p


def test_mask_products_against_direct_products():
    rng = random.Random(1515)
    for make in (random_laurent, random_alpha):
        for k in range(6):
            one = _nonzero(make, rng)
            pairs = [(_nonzero(make, rng), _nonzero(make, rng)) for _ in range(k)]
            table = mask_products(one, pairs)
            assert len(table) == 1 << k
            for mask, value in enumerate(table):
                direct = one
                for i, (clear, chosen) in enumerate(pairs):
                    direct = direct * (chosen if mask >> i & 1 else clear)
                assert value == direct, (make.__name__, k, mask)


def test_basic_products():
    assert P("1 - t") * P("1 - q*t") == P("1 - t - q*t + q*t^2")


def test_additive_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        p = random_laurent(rng)
        assert p + LaurentQT.zero() == p


def test_ring_axioms_random_triples():
    rng = random.Random(20240215)
    for _ in range(1000):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow():
    assert P("1 - t") ** 2 == P("1 - 2*t + t^2")
    assert P("1 - t") ** 0 == LaurentQT.one()
    for base in (LaurentQT.term(1, 0, 1), P("1 - t")):
        with pytest.raises(ValueError):
            base ** -1


def test_substitutions():
    assert P("1 - q*t").substitute_q(1, 2) == P("1 - t^3")
    assert P("1 - q*t").substitute_q(1, -1) == LaurentQT.zero()
    assert P("q^2*t").substitute_q(-1, 0) == P("t")
    assert P("1 - q*t").substitute_t(1, 1) == P("1 - q^2")
    with pytest.raises(ValueError):
        P("q").substitute_q(2, 1)


def test_substitute_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(300):
        a, b = random_laurent(rng), random_laurent(rng)
        for image in ((1, 2), (-1, 1), (1, -2)):
            assert (a * b).substitute_q(*image) == a.substitute_q(*image) * b.substitute_q(*image)
            assert (a + b).substitute_t(*image) == a.substitute_t(*image) + b.substitute_t(*image)
            assert (a * b).substitute_t(*image) == a.substitute_t(*image) * b.substitute_t(*image)


def test_substitution_on_degree_two_macdonald_values():
    # q -> t sends the known coefficients of the degree-2 expansion to their t,t forms
    m2 = P("1 - t") * P("1 - q*t")
    m11 = P("1 + q") * P("1 - t") ** 2
    assert m2.substitute_q(1, 1) == P("1 - t") * P("1 - t^2")
    assert m11.substitute_q(1, 1) == P("1 + t") * P("1 - t") ** 2


def test_exact_div():
    assert P("1 - t^2").exact_div(P("1 - t")) == P("1 + t")
    with pytest.raises(InexactDivision):
        P("1 - q*t").exact_div(P("1 - t"))
    with pytest.raises(ZeroDivisionError):
        P("1").exact_div(LaurentQT.zero())


def test_exact_div_laurent_shifts():
    a = P("t^-2 - t^2")
    d = P("t^-1 - t")
    assert a.exact_div(d) == P("t^-1 + t")


def test_exact_div_of_products_random():
    rng = random.Random(4242)
    for _ in range(400):
        a = random_laurent(rng)
        d = random_laurent(rng)
        if d.is_zero():
            continue
        assert (a * d).exact_div(d) == a


def test_divided_schur_coefficients_are_nonnegative():
    # spot value: dividing the t->q specialization of the degree-2 coefficients
    s2 = (P("1 - t") * P("1 - q*t")).substitute_t(1, 1)
    quotient = s2.exact_div(P("1 - q") ** 2)
    assert quotient == P("1 + q")
    assert all(c > 0 for c in quotient.terms.values()) and quotient.is_integral()


def test_palindromic():
    assert P("1 + 2*t + t^2").is_palindromic_in_t()
    assert not P("1 + 2*t").is_palindromic_in_t()
    assert P("t^2 + t^3 + t^4").is_palindromic_in_t()
    assert not P("1 + t^2 + t^3").is_palindromic_in_t()  # interior zero counts
    with pytest.raises(ValueError):
        P("1 + q*t").is_palindromic_in_t()


def test_string_round_trip_random():
    rng = random.Random(1234)
    for _ in range(500):
        p = random_laurent(rng)
        assert LaurentQT.parse(str(p)) == p
    for _ in range(300):
        coeffs = {(rng.randint(0, 6),): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 4))}
        ap = AlphaPoly(coeffs)
        assert AlphaPoly.parse(str(ap)) == ap


def test_canonical_strings():
    assert str(LaurentQT.zero()) == "0"
    assert str(P("1 - q*t^2")) == "1 - q*t^2"
    assert str(LaurentQT.term(Fraction(1, 2), 1, 0)) == "1/2*q"
    assert str(LaurentQT.term(-1, 0, -3)) == "-t^-3"
    assert str(LaurentQT.term(1, 2, 1) + LaurentQT.one()) == "1 + q^2*t"


def test_alpha_arithmetic():
    assert A("1 + a") * A("1 + 2*a") == A("1 + 3*a + 2*a^2")
    total = A("1") + A("1 + 2*a") - A("a + 2*a^2") - A("a")
    assert total == A("2 - 2*a^2")
    assert A("2 - 2*a^2").substitute(1) == 0
    assert A("2 - 2*a^2").substitute(Fraction(1, 2)) == Fraction(3, 2)


def test_alpha_rejects_negative_exponents():
    with pytest.raises(ValueError):
        AlphaPoly({(-1,): Fraction(1)})


def test_rings_do_not_mix():
    # keys carry one exponent per variable of their class
    with pytest.raises(ValueError):
        AlphaPoly({(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        LaurentQT.one() + AlphaPoly.one()
    assert AlphaPoly.zero() != LaurentQT.zero()


def test_immutability():
    p = P("1 - t")
    with pytest.raises(AttributeError):
        p._terms = {}
    a = A("1 + a")
    with pytest.raises(AttributeError):
        a._terms = {}
