import ast
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import macchroma
from macchroma import chromatic, graphs, shapes
from macchroma.chromatic import (
    IdentityViolation,
    coloring_census,
    graph_tableaux,
    llt_g,
    llt_power_tilde,
    n_lambda,
    n_tilde,
    perm_inv,
    t_analogue,
    verify_plethysm,
    x_g,
    x_g_power,
    x_g_schur,
)
from macchroma.graphs import UGraph, attacking_data, sandwich_graphs
from macchroma.rings import LaurentQT
from macchroma.shapes import partitions_of
from macchroma.symfunc import SymFunc, convert
from ring_values import P, constant_value


def test_x_g_empty_graph():
    f = x_g(UGraph(2))
    assert f.coeffs == {(2,): LaurentQT.one(), (1, 1): LaurentQT.term(2)}


def test_x_g_and_llt_g_of_the_graph_on_no_vertices_are_one():
    one = SymFunc(0, "monomial", {(): LaurentQT.one()}, LaurentQT)
    assert coloring_census(UGraph(0)) == (one,)
    assert x_g(UGraph(0)) == llt_g(UGraph(0)) == one


def test_x_g_single_edge():
    f = x_g(UGraph(2, [(1, 2)]))
    assert f.coeffs == {(1, 1): P("1 + t")}
    assert {lam: c.substitute_t(1, 0) for lam, c in f.coeffs.items()} == {(1, 1): LaurentQT.term(2)}


def test_x_g_symmetry_audit():
    complete = UGraph(3, [(1, 2), (1, 3), (2, 3)])
    f = x_g(complete)
    assert f.coeffs[(1, 1, 1)] == P("1 + 2*t + 2*t^2 + t^3")
    # the cherry with both edges into vertex 3 has asymmetric ascent counts:
    # content (1,1,2) forces ascents on both edges, content (2,2,1) forces none
    crooked = UGraph(3, [(1, 3), (2, 3)])
    with pytest.raises(IdentityViolation):
        x_g(crooked)


def test_x_g_schur_small_graphs():
    empty = x_g_schur(UGraph(2))
    assert empty.coeffs == {(2,): LaurentQT.one(), (1, 1): LaurentQT.one()}
    edge = x_g_schur(UGraph(2, [(1, 2)]))
    assert edge.coeffs == {(1, 1): P("1 + t")}


def test_x_g_schur_requires_claw_free():
    with pytest.raises(ValueError):
        x_g_schur(UGraph(4, [(1, 2), (1, 3), (1, 4)]))


def test_n_lambda_small_cases():
    empty = UGraph(2)
    assert n_lambda(empty, (2,)) == []
    assert n_lambda(empty, (1, 1)) == [(1, 2), (2, 1)]
    edge = UGraph(2, [(1, 2)])
    assert n_lambda(edge, (2,)) == [(1, 2), (2, 1)]


def test_n_lambda_singleton_blocks_admit_everything():
    for n in range(1, 6):
        g = UGraph(n, [(i, i + 1) for i in range(1, n)])
        assert len(n_lambda(g, (1,) * n)) == len(list(permutations(range(n))))


def _block_bounds(lam):
    bounds = []
    start = 0
    for part in lam:
        bounds.append((start, start + part))
        start += part
    return bounds


def _sandwich_calls(max_n):
    """Every (sandwich graph of mu, lambda) pair for mu, lambda of n <= max_n."""
    for n in range(1, max_n + 1):
        for mu in partitions_of(n):
            for h in sandwich_graphs(attacking_data(mu)):
                for lam in partitions_of(n):
                    yield h, lam


def test_n_lambda_brute_filter_oracle():
    # independent filter written from the two conditions directly, over all
    # n! permutations in lexicographic order
    def oracle(h, lam):
        out = []
        for sigma in permutations(range(1, h.n + 1)):
            ok = True
            for lo, hi in _block_bounds(lam):
                block = sigma[lo:hi]
                for i in range(len(block) - 1):
                    if block[i] > block[i + 1] and not h.has_edge(block[i + 1], block[i]):
                        ok = False
                for j in range(1, len(block)):
                    if all(block[i] < block[j] and not h.has_edge(block[i], block[j])
                           for i in range(j)):
                        ok = False
            if ok:
                out.append(sigma)
        return out

    for h, lam in _sandwich_calls(5):
        assert n_lambda(h, lam) == oracle(h, lam), (h, lam)


def test_n_tilde_brute_filter_oracle():
    # the docstring's two conditions over all n! permutations in
    # lexicographic order: each block starts at its minimum, and each
    # in-block ascent is an edge
    def oracle(h, lam):
        out = []
        for sigma in permutations(range(1, h.n + 1)):
            blocks = [sigma[lo:hi] for lo, hi in _block_bounds(lam)]
            if all(block[0] == min(block) for block in blocks) and all(
                h.has_edge(block[i], block[i + 1])
                for block in blocks for i in range(len(block) - 1)
                if block[i] < block[i + 1]
            ):
                out.append(sigma)
        return out

    for h, lam in _sandwich_calls(5):
        assert n_tilde(h, lam) == oracle(h, lam), (h, lam)


def test_graph_tableaux_brute_filter_oracle():
    # the docstring's three conditions over all n! sequences in
    # lexicographic order, each cut into rows bottom row first: rows
    # increase, no two neighbours in a row are a horiz edge, and each cell
    # above the bottom row is above a smaller value or joined to it in vert
    def oracle(lam, horiz, vert):
        out = []
        for sigma in permutations(range(1, sum(lam) + 1)):
            rows = tuple(sigma[lo:hi] for lo, hi in _block_bounds(lam))
            if all(row[c] < row[c + 1] and not horiz.has_edge(row[c], row[c + 1])
                   for row in rows for c in range(len(row) - 1)) and all(
                rows[r][c] > rows[r - 1][c] or vert.has_edge(rows[r][c], rows[r - 1][c])
                for r in range(1, len(rows)) for c in range(len(rows[r]))
            ):
                out.append(rows)
        return out

    for n in range(1, 6):
        pairs = []
        for mu in partitions_of(n):
            data = attacking_data(mu)
            pairs.append((data.g, data.g_plus))
            pairs += [(h, h) for h in sandwich_graphs(data)]
        for horiz, vert in pairs:
            for lam in partitions_of(n):
                assert list(graph_tableaux(lam, horiz, vert)) == oracle(lam, horiz, vert), \
                    (lam, horiz.edges, vert.edges)


def test_graph_tableaux_fill_exactly_the_vertices_of_their_graphs():
    # a shape of another size would leave a vertex out, or use a value that
    # is no vertex; two graphs of different sizes have no common vertex set;
    # a shape that is no partition would give rows that increase upward or are empty
    three = UGraph(3)
    for shape, horiz, vert in (((2,), three, three), ((4,), three, three), ((3,), three, UGraph(4)),
                               ((1, 2), three, three), ((2, 0, 1), three, three)):
        with pytest.raises(ValueError):
            list(graph_tableaux(shape, horiz, vert))
    assert list(graph_tableaux((3,), UGraph(3, [(2, 3)]), three)) == []
    assert list(graph_tableaux((2, 1), three, three)) == [((1, 2), (3,)), ((1, 3), (2,))]


def test_perm_inv():
    g = UGraph(3, [(1, 2), (2, 3)])
    assert perm_inv(g, (3, 2, 1)) == 2  # pairs (3,2) and (2,1) are edges; (3,1) is not
    assert perm_inv(g, (1, 2, 3)) == 0


def test_llt_small_graphs():
    assert llt_g(UGraph(2)).coeffs == {(2,): LaurentQT.one(), (1, 1): LaurentQT.term(2)}
    got = llt_g(UGraph(2, [(1, 2)]))
    assert got.coeffs == {(2,): LaurentQT.one(), (1, 1): P("1 + t")}


def test_llt_at_t_equals_one_counts_all_colorings():
    for mu in partitions_of(3):
        data = attacking_data(mu)
        f = llt_g(data.g_plus)
        total = sum(
            (constant_value(c.substitute_t(1, 0)) * _count_rearrangements(lam, 3)
             for lam, c in f.coeffs.items()),
            Fraction(0),
        )
        assert total == 3**3


def _count_rearrangements(lam, n):
    from math import factorial

    padded = list(lam) + [0] * (n - len(lam))
    count = factorial(n)
    for v in set(padded):
        count //= factorial(padded.count(v))
    return count


def test_llt_of_edgeless_graph_is_first_power_sum_to_the_n():
    f = convert(llt_g(UGraph(3)), "power")
    assert f.coeffs == {(1, 1, 1): LaurentQT.one()}


def test_n_tilde_membership():
    edge = UGraph(2, [(1, 2)])
    assert n_tilde(edge, (2,)) == [(1, 2)]
    empty = UGraph(2)
    assert n_tilde(empty, (2,)) == []
    assert len(n_tilde(empty, (1, 1))) == 2


def test_t_analogue():
    assert t_analogue(1) == LaurentQT.one()
    assert t_analogue(3) == P("1 + t + t^2")


def test_llt_power_tilde_small():
    h = UGraph(2, [(1, 2)])
    assert llt_power_tilde(h) == convert(llt_g(h), "power")


def _perturbed(f, lam, delta=LaurentQT.one()):
    coeffs = dict(f.coeffs)
    coeffs[lam] = f.get(lam) + delta
    return SymFunc(f.degree, f.basis, coeffs, f.ring)


def test_plethysm_checks_fail_on_one_perturbed_coefficient():
    t_minus_1 = P("-1 + t")
    for h in sandwich_graphs(attacking_data((2, 1))):
        llt, x = llt_g(h), x_g(h)
        assert verify_plethysm(h, llt, x)
        llt_p, x_p = convert(llt, "power"), convert(x, "power")
        for lam in partitions_of(h.n):
            assert not verify_plethysm(h, _perturbed(llt, lam), x), (h, lam)
            assert not verify_plethysm(h, llt, _perturbed(x, lam)), (h, lam)
            # LLT_H + (t-1)^n p_lam against X_H + prod(t^part - 1) p_lam
            # keeps the plethystic identity, so the tilde and divided
            # checks must be the ones that fail
            den = LaurentQT.one()
            for part in lam:
                den = den * (LaurentQT.term(1, 0, part) - LaurentQT.one())
            assert not verify_plethysm(h, _perturbed(llt_p, lam, t_minus_1 ** h.n),
                                       _perturbed(x_p, lam, den)), (h, lam)


def test_verify_plethysm_reads_the_n_lambda_route(monkeypatch):
    # checks 2 and 4 read x_g_power, so one perturbed coefficient of it
    # must fail the check though LLT_H and X_H are right
    h = UGraph(3, [(1, 2), (2, 3)])
    llt, x = llt_g(h), x_g(h)
    assert verify_plethysm(h, llt, x)
    real = chromatic.x_g_power
    for lam in partitions_of(h.n):
        monkeypatch.setattr(chromatic, "x_g_power", lambda g, lam=lam: _perturbed(real(g), lam))
        assert not verify_plethysm(h, llt, x), lam


def test_tilde_sum_times_analogue_matches_plain_sum():
    # the inversion sum over the unrestricted set factors through the t-analogues
    for mu in partitions_of(4):
        data = attacking_data(mu)
        for h in sandwich_graphs(data):
            for lam in partitions_of(4):
                plain = LaurentQT.zero()
                for sigma in n_lambda(h, lam):
                    plain = plain + LaurentQT.term(1, 0, perm_inv(h, sigma))
                tilde = LaurentQT.zero()
                for sigma in n_tilde(h, lam):
                    tilde = tilde + LaurentQT.term(1, 0, perm_inv(h, sigma))
                product = tilde
                for part in lam:
                    product = product * t_analogue(part)
                assert product == plain


def test_inversion_sum_counts_perm_inv():
    # the one-pass bitmask count against perm_inv's pair scan, on every block
    # sequence the power routes sum over and on all n! permutations
    for n in range(1, 6):
        everything = list(permutations(range(1, n + 1)))
        for mu in partitions_of(n):
            for h in sandwich_graphs(attacking_data(mu)):
                sets = [everything] + [f(h, lam) for lam in partitions_of(n) for f in (n_lambda, n_tilde)]
                for perms in sets:
                    want = Counter(perm_inv(h, sigma) for sigma in perms)
                    assert chromatic._inversion_sum(h, perms) == LaurentQT({(0, s): c for s, c in want.items()})


def test_expansion_routes_need_a_natural_unit_interval_graph():
    # claw-free, but not natural unit interval in its labels: the tableau
    # formula gave s_3 + s_21 + (1 + 2t) s_111 here without a word
    bent = UGraph(3, [(1, 3)])
    assert convert(x_g(bent), "schur").coeffs == {(2, 1): P("1 + t"), (1, 1, 1): P("1 + t")}
    for n in range(0, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            h = UGraph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])
            try:
                graphs.hessenberg(h)
            except ValueError:
                for route in (x_g_schur, x_g_power, llt_power_tilde):
                    with pytest.raises(ValueError):
                        route(h)
                for block_sets in (n_lambda, n_tilde):
                    for lam in partitions_of(n):
                        with pytest.raises(ValueError):
                            block_sets(h, lam)
                continue
            assert x_g_schur(h) == convert(x_g(h), "schur")
            assert x_g_power(h) == convert(x_g(h), "power")
            assert llt_power_tilde(h) == convert(llt_g(h), "power")


# ---------------------------------------------------------------------------
# The shared coloring census against a brute-force oracle
# ---------------------------------------------------------------------------

def _brute_monomial(h, proper, with_t):
    """Monomial coefficients of X_H / LLT_H straight from the definition,
    over all n^n colorings of h."""
    n = h.n
    hists = {}
    for colors in product(range(1, n + 1), repeat=n):
        if proper and any(colors[u - 1] == colors[v - 1] for u, v in h.edges):
            continue
        content = [colors.count(c) for c in range(1, n + 1)]
        if content != sorted(content, reverse=True):
            continue
        lam = tuple(c for c in content if c)
        asc = sum(colors[u - 1] < colors[v - 1] for u, v in h.edges) if with_t else 0
        hist = hists.setdefault(lam, {})
        hist[asc] = hist.get(asc, 0) + 1
    return {lam: LaurentQT({(0, asc): Fraction(c) for asc, c in hist.items()})
            for lam, hist in hists.items()}


def test_census_matches_brute_force_on_every_sandwich_graph():
    for n in range(1, 5):
        for mu in partitions_of(n):
            data = attacking_data(mu)
            added = [edge for edge, _, _ in data.down_edges]
            xs = coloring_census(data.g, added)
            llts = coloring_census(data.g, added, proper=False)
            assert len(xs) == len(llts) == 1 << len(added)
            for mask, (x, llt) in enumerate(zip(xs, llts)):
                h = data.g.with_edges(added[i] for i in range(len(added)) if mask >> i & 1)
                for f, proper in ((x, True), (llt, False)):
                    assert f.coeffs == _brute_monomial(h, proper, True), (mu, mask, proper)
                    # X_H(x; 1) and LLT_H(x; 1): each coefficient's terms summed
                    at_one = {lam: LaurentQT.term(sum(c.terms.values()))
                              for lam, c in f.coeffs.items()}
                    assert at_one == _brute_monomial(h, proper, False), (mu, mask, proper)


def test_census_audits_each_sandwich_graph():
    # adding (2,3) to the edge (1,3) makes the crooked cherry of
    # test_x_g_symmetry_audit, so the census of both sandwich graphs raises;
    # the graph without it is symmetric
    edge = UGraph(3, [(1, 3)])
    with pytest.raises(IdentityViolation):
        coloring_census(edge, [(2, 3)])
    assert coloring_census(edge) == (x_g(edge),)


@pytest.mark.parametrize("added", [
    [(2, 2)],            # a loop
    [(1, 4)],            # outside 1..3
    [(2, 3), (3, 2)],    # the same edge twice
    [(3, 1)],            # already an edge of the graph
])
def test_census_rejects_added_edges_that_are_not_new(added):
    with pytest.raises(ValueError):
        coloring_census(UGraph(3, [(1, 3)]), added)


def test_identity_violation_is_one_class():
    assert IdentityViolation is graphs.IdentityViolation is macchroma.IdentityViolation
    assert IdentityViolation is shapes.IdentityViolation


_OPTIMIZED_CHECKS = """
import sys
from macchroma import graphs, shapes, symfunc
from macchroma.chromatic import IdentityViolation, coloring_census
from macchroma.rings import LaurentQT

if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    coloring_census(graphs.UGraph(3, [(1, 3)]), [(1, 3)])
except ValueError:
    pass
else:
    sys.exit("an added edge already in the graph was accepted")
# break each attacking-graph invariant in turn; each must still raise
def not_hessenberg(h):
    raise ValueError(f"{h} refused")


breaks = [
    ("with_edges", lambda self, extra: graphs.UGraph(self.n)),  # drops the edges of G
    ("with_edges", lambda self, extra: self),                    # drops the down-edges
    ("hessenberg", not_hessenberg),
]
for name, broken in breaks:
    owner = graphs.UGraph if name == "with_edges" else graphs
    saved = getattr(owner, name)
    setattr(owner, name, broken)
    try:
        graphs.AttackingData((2, 1))
    except IdentityViolation:
        pass
    else:
        sys.exit(f"AttackingData accepted a broken {name}")
    setattr(owner, name, saved)
# the exponent bound, reached by arithmetic
try:
    LaurentQT.term(1, 1 << 30) ** 2
except OverflowError:
    pass
else:
    sys.exit("an exponent past the bound was accepted")
# n_stat's two definitions: give the column count a wrong conjugate of (2,1)
conjugate = shapes.conjugate
shapes.conjugate = lambda lam: (2, 2)
try:
    shapes.n_stat((2, 1))
except IdentityViolation:
    pass
else:
    sys.exit("n_stat accepted disagreeing definitions")
shapes.conjugate = conjugate
# monomial -> Schur back-substitution under a Kostka table that is not
# unitriangular leaves a residue
symfunc.transition_table(2).kostka = [[1, 1], [1, 1]]
m11 = symfunc.SymFunc(2, "monomial", {(1, 1): LaurentQT.one()}, LaurentQT)
try:
    symfunc.convert(m11, "schur")
except IdentityViolation:
    pass
else:
    sys.exit("a back-substitution residue was accepted")
print("ok")
"""


def test_invariant_checks_survive_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stderr


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead
    package = Path(__file__).resolve().parents[1] / "src" / "macchroma"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_caches_have_a_finite_bound():
    # an lru_cache without a written integer maxsize, or a functools.cache,
    # can grow for the life of the process
    package = Path(__file__).resolve().parents[1] / "src" / "macchroma"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for deco in getattr(node, "decorator_list", ()):
                call = deco if isinstance(deco, ast.Call) else None
                if ast.unparse(call.func if call else deco).rsplit(".", 1)[-1] not in ("lru_cache", "cache"):
                    continue
                sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
                if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                    found.append(f"{path.name}:{deco.lineno}")
    assert found == []


def test_package_source_defines_nothing_it_never_uses():
    # every function, method and class of the package is read somewhere in
    # it (a name, an attribute or an import) or exported by the package, so
    # a helper only the tests call belongs in the tests
    package = Path(__file__).resolve().parents[1] / "src" / "macchroma"
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{path.name}:{node.lineno} {node.name}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [where for name, where in defined if name not in used] == []
