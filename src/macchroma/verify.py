"""Cross-verification suites and conjecture scans.

Each suite runs one batch of exact identities per input partition and
reports pass/fail per partition; a failing partition carries its own
counterexample, and the report names the first one found.  Nothing here is
randomized; items are processed in descending lexicographic partition order
(optionally on a process pool, whose size MACCHROMA_THREADS caps) and
reports come out deterministic apart from wall time.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

from . import chromatic as chrom
from . import jack as jackmod
from . import macdonald as macmod
from .graphs import attacking_data, hessenberg, sandwich_graphs
from .rings import InexactDivision, LaurentQT
from .shapes import check_partition, conjugate, n_stat, partitions_of
from .symfunc import convert, power_pairings

class VerifyReport:
    """Per-item pass/fail results plus the first counterexample, if any."""

    def __init__(self, suite, max_n, items, counterexample, wall_time_s):
        self.suite = suite
        self.max_n = max_n
        self.items = items
        self.counterexample = counterexample
        self.wall_time_s = wall_time_s

    def ok(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        return {
            "object": "verify_report",
            "suite": self.suite,
            "max_n": self.max_n,
            "items": self.items,
            "counterexample": self.counterexample,
            "wall_time_s": round(self.wall_time_s, 3),
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} up to n={self.max_n}"]
        for item in self.items:
            mu = ",".join(map(str, item["mu"])) or "-"
            lines.append(f"  mu=({mu}): {item['status']}")
        if self.counterexample:
            lines.append(f"  first counterexample: {self.counterexample}")
        lines.append(f"  {'PASS' if self.ok() else 'FAIL'} in {self.wall_time_s:.2f}s")
        return "\n".join(lines)


def _counterexample(mu, check, basis, index, expected, actual) -> dict:
    return {
        "mu": list(mu),
        "check": check,
        "basis": basis,
        "index": list(index) if index is not None else None,
        "expected": expected,
        "actual": actual,
    }


def _first_mismatch(mu, check, basis, reference, candidate):
    """Compare two same-basis SymFuncs index by index."""
    indices = sorted(set(reference.coeffs) | set(candidate.coeffs), reverse=True)
    for lam in indices:
        want, got = reference.get(lam), candidate.get(lam)
        if want != got:
            return _counterexample(mu, check, basis, lam, str(want), str(got))
    return None


def _route_mismatch(mu, routes, values):
    """Run each route of a family table after the reference (the first), in
    table order, keeping its value in ``values`` by method name, and compare
    it in the monomial basis with the reference's value there; the first
    mismatch, named ``<method>_vs_<reference>``, ends the walk."""
    reference, *others = routes
    for method in others:
        values[method] = f = routes[method](mu)
        bad = _first_mismatch(mu, f"{method}_vs_{reference}", "monomial", values[reference], convert(f, "monomial"))
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# Per-partition suite items (top level so they pickle for process pools)
# ---------------------------------------------------------------------------

def check_macdonald_mu(mu) -> dict:
    mu = check_partition(mu)
    data = attacking_data(mu)
    first = max(mu, default=0)
    want = 2 * n_stat(conjugate(mu)) - first * (first - 1) // 2
    if len(data.g.edges) != want:
        return _counterexample(mu, "attacking_edge_count", None, None, str(want), str(len(data.g.edges)))

    reference = next(iter(macmod.ROUTES))
    values = {reference: macmod.ROUTES[reference](mu)}
    for lam, c in values[reference].coeffs.items():
        if c.has_negative_exponents() or not c.is_integral():
            return _counterexample(mu, f"{reference}_polynomial", "monomial", lam, "element of Z[q,t]", str(c))
    bad = _route_mismatch(mu, macmod.ROUTES, values)
    if bad:
        return bad

    for shape, rows in macmod.ift_enumerate(mu):
        w = macmod.wt_mu(mu, rows)
        if w.has_negative_exponents() or not w.is_integral():
            return _counterexample(mu, "wt_polynomial", None, shape,
                                   "element of Z[q,t]", str(w))
    return {"mu": list(mu), "status": "pass"}


def check_jack_mu(mu) -> dict:
    mu = check_partition(mu)
    reference = next(iter(jackmod.ROUTES))
    values = {reference: jackmod.ROUTES[reference](mu)}
    bad = _route_mismatch(mu, jackmod.ROUTES, values)
    if bad:
        return bad
    # at parameter value 1 the Schur expansion collapses onto the conjugate index
    target = conjugate(mu)
    for lam, c in values["tableaux"].coeffs.items():
        value = c.substitute(1)
        if lam != target and value != 0:
            return _counterexample(mu, "alpha_one_schur_support", "schur", lam, "0", str(value))
        if lam == target and value == 0:
            return _counterexample(mu, "alpha_one_schur_support", "schur", lam, "nonzero", "0")
    return {"mu": list(mu), "status": "pass"}


def check_chromatic_mu(mu) -> dict:
    mu = check_partition(mu)
    data = attacking_data(mu)
    xs = chrom.coloring_census(data.g, data.added)  # audits every H
    for index, (h, x) in enumerate(zip(sandwich_graphs(data), xs)):
        try:
            hessenberg(h)  # the Schur and power routes hold for these graphs only
        except ValueError:
            return _counterexample(mu, "hessenberg", None, (index,), "natural unit interval", str(h))
        bad = _first_mismatch(mu, f"schur_route_mask{index}", "schur",
                              convert(x, "schur"), chrom.x_g_schur(h))
        if bad:
            return bad
        # compared z_lam-cleared, on integers; rationals only to report a mismatch
        xp = chrom.x_g_power(h)
        if power_pairings(x) != power_pairings(xp):
            return _first_mismatch(mu, f"power_route_mask{index}", "power", convert(x, "power"), xp)
    return {"mu": list(mu), "status": "pass"}


def check_llt_mu(mu) -> dict:
    mu = check_partition(mu)
    data = attacking_data(mu)
    llts = chrom.coloring_census(data.g, data.added, proper=False)
    xs = chrom.coloring_census(data.g, data.added)
    for index, (h, llt, x) in enumerate(zip(sandwich_graphs(data), llts, xs)):
        if not chrom.verify_plethysm(h, llt, x):
            return _counterexample(mu, f"llt_plethysm_mask{index}", "power", None,
                                   "plethystic identities hold", "violation")
    return {"mu": list(mu), "status": "pass"}


_SUITE_ITEM = {
    "macdonald": check_macdonald_mu,
    "jack": check_jack_mu,
    "chromatic": check_chromatic_mu,
    "llt": check_llt_mu,
}
SUITES = tuple(_SUITE_ITEM)


def worker_count() -> int:
    raw = os.environ.get("MACCHROMA_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _run_mapped(fn, items, progress=None):
    """Map fn over items, on a process pool when MACCHROMA_THREADS asks for
    more than one worker, streaming each result to progress as it lands."""
    workers = min(worker_count(), len(items))
    pool, mapped = nullcontext(), map
    if workers > 1:
        import multiprocessing as mp

        pool = mp.get_context("fork").Pool(workers)
        mapped = pool.imap
    results = []
    with pool:
        for res in mapped(fn, items):
            if progress:
                progress(res)
            results.append(res)
    return results


def _report(name: str, fn, max_n: int, progress, *args) -> VerifyReport:
    """Run fn on every partition of 1..max_n, passing (mu, *args) when args
    are given, and collect the results into one report: each failing item
    keeps its own counterexample, and the report names the first."""
    start = time.perf_counter()
    mus = [mu for n in range(1, max_n + 1) for mu in partitions_of(n)]
    items = []
    counterexample = None
    for res in _run_mapped(fn, [(mu, *args) for mu in mus] if args else mus, progress):
        if "status" not in res:
            counterexample = counterexample or res
            res = {"mu": res["mu"], "status": "fail", "counterexample": res}
        items.append(res)
    return VerifyReport(name, max_n, items, counterexample, time.perf_counter() - start)


def run_suite(suite: str, max_n: int, progress=None) -> VerifyReport:
    if suite not in _SUITE_ITEM:
        raise ValueError(f"unknown suite {suite!r}")
    return _report(suite, _SUITE_ITEM[suite], max_n, progress)


def run_suites(suite: str, max_n: int, progress=None):
    names = list(SUITES) if suite == "all" else [suite]
    return [run_suite(name, max_n, progress) for name in names]


# ---------------------------------------------------------------------------
# Conjecture scans
# ---------------------------------------------------------------------------

def _positivity_failure(value: LaurentQT):
    for (qa, tb) in sorted(value.terms):
        c = value.terms[(qa, tb)]
        if c < 0 or qa < 0 or tb < 0 or c.denominator != 1:
            return str(LaurentQT({(qa, tb): c}))
    return None


def _scan(mu, max_k, name, specialize, divisor, palindromic) -> dict:
    """For k = 1..max_k, ``specialize(c, k)`` each Schur coefficient c of
    J_mu and divide by ``divisor``; the quotient must be a nonnegative
    integer polynomial, and palindromic in t when ``palindromic``."""
    schur = macmod.j_schur(mu)
    for k in range(1, max_k + 1):
        for lam, c in sorted(schur.coeffs.items(), reverse=True):
            specialized = specialize(c, k)
            try:
                quotient = specialized.exact_div(divisor)
            except InexactDivision:
                return _counterexample(mu, f"{name}_k{k}", "schur", lam,
                                       "exact division", f"inexact: {specialized}")
            witness = _positivity_failure(quotient)
            if witness:
                return _counterexample(mu, f"{name}_k{k}", "schur", lam,
                                       "nonnegative", witness)
            if palindromic and not quotient.is_palindromic_in_t():
                return _counterexample(mu, f"{name}_k{k}", "schur", lam,
                                       "palindromic", str(quotient))
    return {"mu": list(mu), "status": "pass"}


def scan_haglund_mu(args) -> dict:
    """Specialize t to q^k; every Schur coefficient over (1-q)^n must be
    a nonnegative integer polynomial."""
    mu, max_k = args
    mu = check_partition(mu)
    return _scan(mu, max_k, "haglund", lambda c, k: c.substitute_t(1, k),
                 LaurentQT({(0, 0): 1, (1, 0): -1}) ** sum(mu), palindromic=False)


def scan_palindromic_mu(args) -> dict:
    """Specialize q to t^-k, clear the Laurent shift, divide by (1-t)^n;
    every Schur coefficient must be nonnegative and palindromic in t.

    The scanned claim holds at k=1 but is false from k=2 on, so a scan with
    max_k >= 2 reports a counterexample (CLI exit 4).  Witness: for mu = (1,1)
    the degree-2 single-row index specializes at k=2 to
    -t*s_2 + (1+t+t^2)*s_11, whose s_2 coefficient is negative.
    """
    mu, max_k = args
    mu = check_partition(mu)
    shift_unit = n_stat(mu)  # n of the conjugate of the output index
    return _scan(mu, max_k, "palindromic",
                 lambda c, k: c.substitute_q(1, -k) * LaurentQT.term(1, 0, k * shift_unit),
                 macmod.ONE_MINUS_T ** sum(mu), palindromic=True)


_CONJECTURES = {"haglund": scan_haglund_mu, "palindromic": scan_palindromic_mu}
CONJECTURES = tuple(_CONJECTURES)


def run_conjecture(which: str, max_n: int, max_k: int, progress=None) -> VerifyReport:
    if which not in _CONJECTURES:
        raise ValueError(f"unknown conjecture {which!r}")
    return _report(f"conjecture:{which}", _CONJECTURES[which], max_n, progress, max_k)
