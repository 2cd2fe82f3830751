"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two items pin documented errata in the reference values rather than the
values themselves: the displayed hook weight (1+a)(1+2a) of the reference
tableau contradicts the weight definition, whose value (2+2a)(1+2a) the test
derives from the tableau's q,t weight; and the inverse-power specialization
scan is not Schur positive from k=2 on, which the test pins by the
hand-derived degree-2 counterexample.
"""

import time
from fractions import Fraction

from macchroma.chromatic import llt_g, verify_plethysm, x_g, x_g_power, x_g_schur
from macchroma.graphs import attacking_data, hessenberg, sandwich_graphs
from macchroma.jack import jack_chromatic, jack_knop_sahi, jack_power, jack_schur, wt_alpha
from macchroma.macdonald import (
    ift_enumerate,
    j_chromatic,
    j_hhl,
    j_power,
    j_schur,
    non_attacking_fillings,
    wt_mu,
)
from macchroma.rings import AlphaPoly, LaurentQT
from macchroma.shapes import conjugate, n_stat, partitions_of
from macchroma.symfunc import convert
from macchroma.verify import run_conjecture
from ring_values import A, P, constant_value


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_four_way_macdonald_equality():
    start = time.perf_counter()
    for n in range(1, 7):
        for mu in partitions_of(n):
            reference = j_hhl(mu)
            assert j_chromatic(mu) == reference, f"chromatic route differs at {mu}"
            assert convert(j_schur(mu), "monomial") == reference, f"tableau route differs at {mu}"
            assert convert(j_power(mu), "monomial") == reference, f"power route differs at {mu}"
    elapsed = time.perf_counter() - start
    assert _report("1 (four-way q,t equality, n<=6)", True, f"{elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_2_reference_values_qt():
    expected = P("1 - t") ** 2 * P("q - t") * P("1 - q*t") * P("1 + q*t")
    got = j_schur((2, 1, 1)).get((2, 2))
    assert str(got) == str(expected)

    rows = ((1, 4, 6), (3, 5), (2,))
    expected_wt = P("q*t^2") * P("1 - t") ** 2 * P("1 - q^2*t") * P("1 - q^2*t^2")
    assert str(wt_mu((2, 2, 2), rows)) == str(expected_wt)

    weights = {
        ((1, 3), (2, 4)): P("q") * P("1 - t") ** 2,
        ((1, 4), (2, 3)): P("q*t") * P("1 - t") * P("1 - q^2*t"),
        ((2, 3), (1, 4)): P("-t") * P("1 - q") * P("1 - q^2*t"),
        ((2, 4), (1, 3)): P("-q^2*t^2") * P("1 - q") * P("1 - t"),
    }
    seen = 0
    for shape, rows in ift_enumerate((2, 1, 1)):
        if shape == (2, 2):
            assert str(wt_mu((2, 1, 1), rows)) == str(weights[rows])
            seen += 1
    assert seen == 4
    assert _report("2 (reference q,t values)", True)


def test_criterion_2_reference_values_jack_and_graphs():
    assert str(jack_schur((2, 1, 1)).get((2, 2))) == str(A("2 - 2*a^2"))
    assert str(jack_power((2, 1, 1)).get((2, 2))) == "-a"

    d32 = attacking_data((3, 2))
    assert set(d32.g.edges) == {(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}
    assert set(d32.g_plus.edges) - set(d32.g.edges) == {(1, 3), (2, 4)}
    d211 = attacking_data((2, 1, 1))
    assert d211.g.edges == ((3, 4),)
    assert d211.g_plus.edges == ((1, 2), (2, 3), (3, 4))
    assert _report("2 (reference Jack values and graph edge sets)", True)


def _alpha_limit(weight: LaurentQT, k: int, n: int) -> Fraction:
    """Value at a=k of the Jack limit of a q,t weight: q = t^k, divide by
    (1-t)^n, then t = 1."""
    return constant_value(weight.substitute_q(1, k).exact_div(P("1 - t") ** n).substitute_t(1, 0))


def _interpolate(points) -> AlphaPoly:
    """The polynomial in a of least degree through the given (a, value) points."""
    result = AlphaPoly.zero()
    for i, (ai, vi) in enumerate(points):
        basis = AlphaPoly.term(vi)
        for j, (aj, _) in enumerate(points):
            if j != i:
                basis = basis * AlphaPoly({(1,): 1, (0,): -aj}).scale(Fraction(1, ai - aj))
        result = result + basis
    return result


def test_criterion_2_displayed_alpha_tableau_weight():
    """The hook weight of the reference tableau, and the displayed erratum.

    The weight definition gives, per left-adjacent down-edge, a factor
    1 + hook(u) with hook ``a*(leg+1) + arm`` of the upper cell u.  For the
    reference tableau those down-edges are {3,5} and {4,6}; cell 3 has arm 1
    and leg 1, cell 4 arm 0 and leg 1, so the weight is (2+2a)(1+2a).  The
    expected value is derived here without the Jack code: the Jack weight is
    the limit of the tableau's q,t weight q*t^2 (1-t)^2 (1-q^2 t)(1-q^2 t^2)
    (asserted in criterion 2's q,t test) at q = t^a, t -> 1 after dividing by
    (1-t)^4.  The limits at a = 1, 2, 3 fix the weight, a product of two
    hooks and so at most quadratic in a; a = 4 checks the fit.  The displayed
    product (1+a)(1+2a) uses 1 + hook of cell 2 instead and is half the
    definition's value at every a; the last assertion records that erratum.
    """
    rows = ((1, 4, 6), (3, 5), (2,))
    qt_weight = P("q*t^2") * P("1 - t") ** 2 * P("1 - q^2*t") * P("1 - q^2*t^2")
    limits = [(k, _alpha_limit(qt_weight, k, 4)) for k in (1, 2, 3, 4)]
    assert [v for _, v in limits] == [12, 30, 56, 90]
    expected = _interpolate(limits[:3])
    assert expected.substitute(4) == limits[3][1]

    got = wt_alpha((2, 2, 2), rows)
    assert got == expected, f"wt_alpha gives {got}, the q,t limit gives {expected}"
    displayed = A("1 + a") * A("1 + 2*a")
    assert displayed != expected
    assert _report("2 (hook weight for the reference tableau; displayed value is an erratum)",
                   True, f"definition gives {got}, displayed {displayed}")


def test_macdonald_to_jack_limit():
    """The identity that ties the two families: each Schur coefficient of
    J_mu(x; q, t) at q = t^k, divided exactly by (1-t)^n, equals at t = 1
    the Schur coefficient of the Jack polynomial at a = k."""
    checked = 0
    for n in range(1, 6):
        for mu in partitions_of(n):
            qt, alpha = j_schur(mu), jack_schur(mu)
            for lam in set(qt.coeffs) | set(alpha.coeffs):
                for k in (1, 2, 3):
                    assert _alpha_limit(qt.get(lam), k, n) == alpha.get(lam).substitute(k), \
                        (mu, lam, k)
                    checked += 1
    assert checked == 159


def test_criterion_3_weight_polynomiality():
    start = time.perf_counter()
    for n in range(1, 7):
        for mu in partitions_of(n):
            for _, rows in ift_enumerate(mu):
                w = wt_mu(mu, rows)
                assert not w.has_negative_exponents(), (mu, rows, str(w))
                assert w.is_integral(), (mu, rows, str(w))
    elapsed = time.perf_counter() - start
    assert _report("3 (tableau weights lie in Z[q,t], n<=6)", True, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_4_four_way_jack_equality_and_alpha_one():
    start = time.perf_counter()
    for n in range(1, 7):
        for mu in partitions_of(n):
            reference = jack_knop_sahi(mu)
            assert jack_chromatic(mu) == reference, f"chromatic route differs at {mu}"
            schur = jack_schur(mu)
            assert convert(schur, "monomial") == reference, f"tableau route differs at {mu}"
            assert convert(jack_power(mu), "monomial") == reference, f"subset route differs at {mu}"
            target = conjugate(mu)
            for lam, c in schur.coeffs.items():
                value = c.substitute(1)
                assert (value != 0) == (lam == target), (mu, lam, value)
    elapsed = time.perf_counter() - start
    assert _report("4 (four-way Jack equality and collapse at a=1, n<=6)", True, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_5_chromatic_cross_checks():
    start = time.perf_counter()
    for n in range(1, 6):
        for mu in partitions_of(n):
            for h in sandwich_graphs(attacking_data(mu)):
                hessenberg(h)  # raises unless natural unit interval, which implies claw-free
                f = x_g(h)  # raises on any symmetry violation
                assert x_g_schur(h) == convert(f, "schur"), (mu, h.edges)
                assert x_g_power(h) == convert(f, "power"), (mu, h.edges)
    elapsed = time.perf_counter() - start
    assert _report("5 (chromatic expansions agree on every sandwich graph, n<=5)",
                   True, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_6_llt_suite():
    start = time.perf_counter()
    for n in range(1, 6):
        for mu in partitions_of(n):
            for h in sandwich_graphs(attacking_data(mu)):
                assert verify_plethysm(h, llt_g(h), x_g(h)), (mu, h.edges)
    elapsed = time.perf_counter() - start
    assert _report("6 (plethystic and divisibility identities, n<=5)", True, f"{elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_7_structural_invariants():
    for n in range(1, 6):
        for mu in partitions_of(n):
            data = attacking_data(mu)
            nz = n_stat(conjugate(mu))
            assert len(data.g.edges) == 2 * nz - mu[0] * (mu[0] - 1) // 2
            assert len(data.down_edges) == n - mu[0]
            pairs = len(data.g.edges)
            for values, maj, inv, arm_des, mask in non_attacking_fillings(mu):
                coinv = sum(1 for u, v in data.g.edges if values[u - 1] < values[v - 1])
                assert inv + coinv == pairs
                assert 0 <= arm_des <= sum(arm for _, arm, _ in data.down_edges)
    assert _report("7 (edge counts and inv+coinv identity, n<=5)", True)


def test_criterion_8_haglund_scan():
    start = time.perf_counter()
    report = run_conjecture("haglund", 5, 3)
    elapsed = time.perf_counter() - start
    assert _report("8 (positive-power specialization scan, n<=5, k<=3)",
                   report.ok(), f"{elapsed:.1f}s")
    assert report.ok(), report.counterexample
    assert elapsed < 600


def _inverse_power(mu, k):
    """Schur coefficients of t^(k n(mu)) J_mu(x; t^-k, t) / (1-t)^n; raises
    InexactDivision if a division is not exact."""
    clearing = LaurentQT.term(1, 0, k * n_stat(mu))
    divisor = P("1 - t") ** sum(mu)
    return {lam: (c.substitute_q(1, -k) * clearing).exact_div(divisor)
            for lam, c in j_schur(mu).coeffs.items()}


def test_criterion_8_palindromic_scan():
    """The inverse-power specialization scan: k=1 passes, k=2 fails.

    The scan checks that the Schur coefficients of
    t^(k n(mu)) J_mu(x; t^-k, t) / (1-t)^n are nonnegative and palindromic.
    That claim is false from k=2 on.  Witness, derived by hand: the degree-2
    single-row index (diagram mu = (1,1)) has expansion
    (1-t)(1-qt)m_2 + (1+q)(1-t)^2 m_11.  Substituting q -> t^-2, multiplying
    by the clearing power t^2 and dividing by (1-t)^2 gives
    -t*m_2 + (1+t^2)m_11 = -t*s_2 + (1+t+t^2)s_11, whose s_2 coefficient is
    negative.  The test asserts that every k=1 instance for n <= 5 passes,
    that the scan to k=3 reports exactly this witness first, that every
    division for n <= 5, k <= 3 is exact, and that the k=2 Schur expansion
    for mu = (1,1) is the hand-derived one.
    """
    k1 = run_conjecture("palindromic", 5, 1)
    assert k1.ok(), k1.counterexample

    report = run_conjecture("palindromic", 5, 3)
    assert not report.ok()
    assert report.counterexample == {
        "mu": [1, 1], "check": "palindromic_k2", "basis": "schur", "index": [2],
        "expected": "nonnegative", "actual": "-t",
    }
    # the scan stops at a partition's first failure, so check every division here
    for n in range(1, 6):
        for mu in partitions_of(n):
            for k in (1, 2, 3):
                _inverse_power(mu, k)

    assert _inverse_power((1, 1), 2) == {(2,): P("-t"), (1, 1): P("1 + t + t^2")}
    assert _report("8 (inverse-power specialization scan: k=1 passes, k=2 counterexample)",
                   True, f"first counterexample {report.counterexample}")
