import random
from fractions import Fraction

import pytest

from macchroma.rings import AlphaPoly, InexactDivision, LaurentQT, mask_products
from ring_values import A, P


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


@pytest.mark.parametrize("dividend", ["1", "1 + a"])
def test_alpha_exact_div_with_a_laurent_quotient_is_inexact(dividend):
    # the quotient would carry a^-1, which AlphaPoly does not hold
    with pytest.raises(InexactDivision):
        A(dividend).exact_div(A("a"))


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
        assert P(str(p)) == p
    for _ in range(300):
        coeffs = {(rng.randint(0, 6),): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 4))}
        ap = AlphaPoly(coeffs)
        assert A(str(ap)) == ap


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


@pytest.mark.parametrize("method, args", [("substitute_q", (1, 1)), ("substitute_t", (1, 1)),
                                          ("is_palindromic_in_t", ())])
def test_the_q_t_methods_reject_the_alpha_ring(method, args):
    # each used to fail inside the q,t code (IndexError, ValueError)
    with pytest.raises(TypeError, match="AlphaPoly"):
        getattr(AlphaPoly.one(), method)(*args)
    getattr(LaurentQT.one(), method)(*args)


def test_cancelling_operations_leave_no_zero_coefficient():
    # each operation sums into a plain dict; the constructor alone drops zeros
    t, q = LaurentQT.term(1, 0, 1), LaurentQT.term(1, 1)
    a = AlphaPoly.term(1, 1)
    cases = [
        (P("1 + t") + P("2 - t"), LaurentQT({(0, 0): 3})),
        (P("1 + t") + P("-1 - t"), LaurentQT()),
        ((LaurentQT.one() + t) - (LaurentQT.one() + t.scale(2)), LaurentQT({(0, 1): -1})),
        ((q - t) - (q - t), LaurentQT()),
        ((LaurentQT.one() + t) * (LaurentQT.one() - t), LaurentQT({(0, 0): 1, (0, 2): -1})),
        (P("1/2 + q*t^-1") * P("1/2 - q*t^-1"), LaurentQT({(0, 0): Fraction(1, 4), (2, -2): -1})),
        ((a + AlphaPoly.one()) * (a - AlphaPoly.one()), AlphaPoly({(2,): 1, (0,): -1})),
        ((q - t + q * t).substitute_q(1, 1), LaurentQT({(0, 2): 1})),
        ((q + t).substitute_q(-1, 1), LaurentQT()),
        ((t - q + LaurentQT.one()).substitute_t(1, 1), LaurentQT.one()),
        (P("1 - q*t").substitute_t(1, -1), LaurentQT()),
        (P("1/3 - q").scale(0), LaurentQT()),
        (P("1 + t").scale(Fraction(0)), LaurentQT()),
        ((a + AlphaPoly.one()).scale(0), AlphaPoly()),
        (P("1 - t^2").exact_div(P("1 - t")), LaurentQT({(0, 0): 1, (0, 1): 1})),
        (P("q^2 - t^2").exact_div(P("q + t")), LaurentQT({(1, 0): 1, (0, 1): -1})),
        ((a * a - AlphaPoly.one()).exact_div(a - AlphaPoly.one()), AlphaPoly({(1,): 1, (0,): 1})),
    ]
    for value, direct in cases:
        assert all(value.terms.values()), value.terms
        assert value == direct and value.terms == direct.terms


def test_immutability():
    p = P("1 - t")
    with pytest.raises(AttributeError):
        p._terms = {}
    a = A("1 + a")
    with pytest.raises(AttributeError):
        a._terms = {}


# -- integer coefficients ----------------------------------------------------

def _coefficients(value):
    return list(value.terms.values())


def test_values_built_from_ints_hold_ints():
    one_minus_t = LaurentQT.one() - LaurentQT.term(1, 0, 1)
    one_minus_qt = LaurentQT.one() - LaurentQT.term(1, 1, 1)
    hook = AlphaPoly({(1,): 2, (0,): 1})
    built = [
        one_minus_t * one_minus_qt,
        LaurentQT({(0, 0): 3, (1, -1): -2}) ** 3,
        LaurentQT.term(5, 1, -2) + LaurentQT.one() - LaurentQT.term(7),
        one_minus_qt.scale(4),
        -LaurentQT({(0, 0): 2, (0, 1): -1}).substitute_q(-1, 3),
        (one_minus_t * one_minus_qt).substitute_t(1, 2),
        (one_minus_t * one_minus_qt).exact_div(one_minus_qt),
        LaurentQT({(0, 0): 6, (0, 1): 6}).exact_div(LaurentQT({(0, 0): 3, (0, 1): 3})),
        hook * (AlphaPoly.one() - hook) + AlphaPoly.term(2),
    ]
    built += mask_products(AlphaPoly.one(), [(AlphaPoly.one(), hook), (AlphaPoly.one() + hook, -hook)])
    rng = random.Random(2020)
    for _ in range(100):
        a, b = random_alpha(rng), random_alpha(rng)
        built.append(((a + b) * (a - b.scale(3)) ** 2).scale(rng.choice([-1, 2])) + AlphaPoly.one())
    for value in built:
        assert not value.is_zero()
        assert all(type(c) is int for c in _coefficients(value)), value
    # an operation with a Fraction operand gives Fractions; parse reads Fractions
    assert all(type(c) is Fraction for c in _coefficients(one_minus_t.scale(Fraction(1, 2))))
    assert all(type(c) is Fraction for c in _coefficients(P("1 - t")))
    assert type(A("2 - 2*a^2").substitute(1)) is int
    assert type(hook.substitute(Fraction(4, 2))) is int
    assert A("2 - 2*a^2").substitute(Fraction(1, 2)) == Fraction(3, 2)
    assert type(A("1/2 + a").substitute(0)) is Fraction
    with pytest.raises(TypeError):
        LaurentQT.term(0.5, 1, 0)
    with pytest.raises(TypeError):
        one_minus_t.scale(2.0)


def test_int_and_integral_fraction_coefficients_compare_and_hash_equal():
    pairs = [
        (LaurentQT({(1, -1): 3, (0, 2): -4}), LaurentQT({(1, -1): Fraction(3), (0, 2): Fraction(-8, 2)})),
        (LaurentQT.one() - LaurentQT.term(1, 0, 1), P("1 - t")),
        ((LaurentQT.one() - LaurentQT.term(1, 0, 1)).scale(2), P("1 - t").scale(2)),
        (AlphaPoly({(2,): 5}), AlphaPoly({(2,): Fraction(10, 2)})),
        (AlphaPoly.term(1) + AlphaPoly.term(2, 1), A("1 + 2*a")),
        (LaurentQT.term(1), LaurentQT.term(Fraction(1))),
    ]
    for a, b in pairs:
        assert {type(c) for c in _coefficients(a)} == {int}
        assert {type(c) for c in _coefficients(b)} == {Fraction}
        assert a == b and b == a and hash(a) == hash(b) and str(a) == str(b)
        assert len({a, b}) == 1
        assert a + b == a.scale(2) and (a - b).is_zero()
    assert P("1/2 + t") != LaurentQT.one() + LaurentQT.term(1, 0, 1)


def test_exact_div_non_unit_leading_coefficient_is_exact():
    quotient = P("1 + t").exact_div(P("2 + 2*t"))
    assert quotient == LaurentQT.term(Fraction(1, 2))
    assert [type(c) for c in _coefficients(quotient)] == [Fraction]
    quotient = P("3 + 6*t + 3*t^2").exact_div(P("3 + 3*t"))
    assert quotient == P("1 + t") and all(type(c) is int for c in _coefficients(quotient))
    quotient = P("1 + 2*t + t^2").exact_div(P("3 + 3*t"))
    assert quotient == P("1/3 + 1/3*t")
    assert all(type(c) is Fraction for c in _coefficients(quotient))
    with pytest.raises(InexactDivision):
        P("1 + t^2").exact_div(P("2 + 2*t"))
    with pytest.raises(InexactDivision):
        P("1 + 3*q*t").exact_div(P("3 + q"))
    rng = random.Random(3131)
    for _ in range(300):
        a = LaurentQT({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-9, 9) for _ in range(3)})
        d = LaurentQT({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice([-6, -4, 2, 3, 5, 9])
                       for _ in range(rng.randint(1, 3))})
        quotient = (a * d).exact_div(d)
        assert quotient == a and all(type(c) is int for c in _coefficients(quotient))
        quotient = (a * d).exact_div(d.scale(6))
        assert quotient == a.scale(Fraction(1, 6))
        assert all(type(c) in (int, Fraction) for c in _coefficients(quotient))


def test_route_outputs_hold_no_float():
    from macchroma import chromatic, jack, macdonald
    from macchroma.graphs import attacking_data
    from macchroma.shapes import partitions_of

    for n in range(5):
        for mu in partitions_of(n):
            g = attacking_data(mu).g
            jack_outputs = [route(mu) for route in (
                jack.jack_knop_sahi, jack.jack_chromatic, jack.jack_schur, jack.jack_power)]
            outputs = jack_outputs + [route(mu) for route in (
                macdonald.j_hhl, macdonald.j_chromatic, macdonald.j_schur, macdonald.j_power)]
            outputs += [route(g) for route in (
                chromatic.x_g, chromatic.x_g_schur, chromatic.x_g_power,
                chromatic.llt_g, chromatic.llt_power_tilde)]
            for f in outputs:
                for c in f.coeffs.values():
                    assert all(type(x) in (int, Fraction) for x in _coefficients(c)), (mu, f)
            # the Jack weights are built from ints, and only 1/z_lam is rational
            for f in jack_outputs:
                if f.basis != "power":
                    for c in f.coeffs.values():
                        assert all(type(x) is int for x in _coefficients(c)), (mu, f)
