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

from . import chromatic as chrom
from . import jack as jackmod
from . import macdonald as macmod
from .graphs import attacking_data, is_claw_free, sandwich_graphs
from .rings import InexactDivision, LaurentQT
from .shapes import check_partition, conjugate, n_stat, partitions_of
from .symfunc import convert, omega

SUITES = ("macdonald", "jack", "chromatic", "llt")


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


# ---------------------------------------------------------------------------
# Per-partition suite items (top level so they pickle for process pools)
# ---------------------------------------------------------------------------

def check_macdonald_mu(mu) -> dict:
    mu = check_partition(mu)
    n = sum(mu)
    data = attacking_data(mu)
    nz = n_stat(conjugate(mu))
    if len(data.g.edges) != 2 * nz - mu[0] * (mu[0] - 1) // 2:
        return _counterexample(mu, "attacking_edge_count", None, None,
                               str(2 * nz - mu[0] * (mu[0] - 1) // 2), str(len(data.g.edges)))
    if len(data.down_edges) != n - mu[0]:
        return _counterexample(mu, "down_edge_count", None, None,
                               str(n - mu[0]), str(len(data.down_edges)))

    reference = macmod.j_hhl(mu)
    for lam, c in reference.coeffs.items():
        if c.has_negative_exponents() or not c.is_integral():
            return _counterexample(mu, "hhl_polynomial", "monomial", lam, "element of Z[q,t]", str(c))

    bad = _first_mismatch(mu, "chromatic_vs_hhl", "monomial", reference, macmod.j_chromatic(mu))
    if bad:
        return bad
    bad = _first_mismatch(mu, "schur_vs_hhl", "monomial", reference,
                          convert(macmod.j_schur(mu), "monomial"))
    if bad:
        return bad
    bad = _first_mismatch(mu, "power_vs_hhl", "monomial", reference,
                          convert(macmod.j_power(mu), "monomial"))
    if bad:
        return bad

    for tableau in macmod.ift_enumerate(mu):
        w = macmod.wt_mu(tableau)
        if w.has_negative_exponents() or not w.is_integral():
            return _counterexample(mu, "wt_polynomial", None, tableau.shape,
                                   "element of Z[q,t]", str(w))
    return {"mu": list(mu), "status": "pass"}


def check_jack_mu(mu) -> dict:
    mu = check_partition(mu)
    reference = jackmod.jack_knop_sahi(mu)
    bad = _first_mismatch(mu, "chromatic_vs_knop_sahi", "monomial", reference,
                          jackmod.jack_chromatic(mu))
    if bad:
        return bad
    schur = jackmod.jack_schur(mu)
    bad = _first_mismatch(mu, "schur_vs_knop_sahi", "monomial", reference,
                          convert(schur, "monomial"))
    if bad:
        return bad
    power = jackmod.jack_power(mu)
    bad = _first_mismatch(mu, "power_vs_knop_sahi", "monomial", reference,
                          convert(power, "monomial"))
    if bad:
        return bad
    bad = _first_mismatch(mu, "power_sign_forms", "power", power,
                          jackmod.jack_power(mu, sign_on_total_edges=True))
    if bad:
        return bad
    # at parameter value 1 the Schur expansion collapses onto the conjugate index
    target = conjugate(mu)
    for lam, c in schur.coeffs.items():
        value = c.substitute(1)
        if lam != target and value != 0:
            return _counterexample(mu, "alpha_one_schur_support", "schur", lam, "0", str(value))
        if lam == target and value == 0:
            return _counterexample(mu, "alpha_one_schur_support", "schur", lam, "nonzero", "0")
    return {"mu": list(mu), "status": "pass"}


def check_chromatic_mu(mu) -> dict:
    mu = check_partition(mu)
    data = attacking_data(mu)
    added = [edge for edge, _, _ in data.down_edges]  # bit i of a sandwich mask
    census = chrom.coloring_census(data.g, added)
    for index, h in enumerate(sandwich_graphs(data)):
        if not is_claw_free(h):
            return _counterexample(mu, "claw_free", None, (index,), "claw-free", "claw found")
        x = chrom.from_census(census, index)  # includes the symmetry audit
        bad = _first_mismatch(mu, f"schur_route_mask{index}", "schur",
                              convert(x, "schur"), chrom.x_g_schur(h))
        if bad:
            return bad
        bad = _first_mismatch(mu, f"power_route_mask{index}", "power",
                              convert(x, "power"), omega(chrom.x_g_power(h)))
        if bad:
            return bad
        at_one = x.map_coeffs(lambda c: c.substitute_t(1, 0))
        bad = _first_mismatch(mu, f"t_equals_one_mask{index}", "monomial",
                              chrom.from_census(census, index, with_t=False), at_one)
        if bad:
            return bad
    return {"mu": list(mu), "status": "pass"}


def check_llt_mu(mu) -> dict:
    mu = check_partition(mu)
    data = attacking_data(mu)
    added = [edge for edge, _, _ in data.down_edges]
    llt_census = chrom.coloring_census(data.g, added, proper=False)
    x_census = chrom.coloring_census(data.g, added)
    for index, h in enumerate(sandwich_graphs(data)):
        llt, x = chrom.from_census(llt_census, index), chrom.from_census(x_census, index)
        if not chrom._plethysm_holds(h, llt, x):
            return _counterexample(mu, f"llt_plethysm_mask{index}", "power", None,
                                   "plethystic identities hold", "violation")
    return {"mu": list(mu), "status": "pass"}


_SUITE_ITEM = {
    "macdonald": check_macdonald_mu,
    "jack": check_jack_mu,
    "chromatic": check_chromatic_mu,
    "llt": check_llt_mu,
}


def worker_count() -> int:
    raw = os.environ.get("MACCHROMA_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _run_mapped(fn, items, progress=None):
    """Map fn over items, streaming each result to progress as it lands."""
    workers = worker_count()
    results = []
    if workers > 1 and len(items) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(workers, len(items))) as pool:
            for res in pool.imap(fn, items):
                if progress:
                    progress(res)
                results.append(res)
    else:
        for item in items:
            res = fn(item)
            if progress:
                progress(res)
            results.append(res)
    return results


def _collect(results):
    """Report items and the first counterexample; each failing item keeps
    its own counterexample."""
    items = []
    counterexample = None
    for res in results:
        if "status" in res:
            items.append(res)
        else:
            items.append({"mu": res["mu"], "status": "fail", "counterexample": res})
            if counterexample is None:
                counterexample = res
    return items, counterexample


def run_suite(suite: str, max_n: int, progress=None) -> VerifyReport:
    if suite not in _SUITE_ITEM:
        raise ValueError(f"unknown suite {suite!r}")
    start = time.perf_counter()
    mus = [mu for n in range(1, max_n + 1) for mu in partitions_of(n)]
    items, counterexample = _collect(_run_mapped(_SUITE_ITEM[suite], mus, progress))
    return VerifyReport(suite, max_n, items, counterexample, time.perf_counter() - start)


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


def scan_haglund_mu(args) -> dict:
    """Specialize t to q^k; every Schur coefficient over (1-q)^n must be
    a nonnegative integer polynomial."""
    mu, max_k = args
    mu = check_partition(mu)
    n = sum(mu)
    schur = macmod.j_schur(mu)
    divisor = LaurentQT.parse("1 - q") ** n
    for k in range(1, max_k + 1):
        for lam, c in sorted(schur.coeffs.items(), reverse=True):
            specialized = c.substitute_t(1, k)
            try:
                quotient = specialized.exact_div(divisor)
            except InexactDivision:
                return _counterexample(mu, f"haglund_k{k}", "schur", lam,
                                       "exact division", f"inexact: {specialized}")
            witness = _positivity_failure(quotient)
            if witness:
                return _counterexample(mu, f"haglund_k{k}", "schur", lam,
                                       "nonnegative", witness)
    return {"mu": list(mu), "status": "pass"}


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
    n = sum(mu)
    schur = macmod.j_schur(mu)
    divisor = macmod.ONE_MINUS_T ** n
    shift_unit = n_stat(mu)  # n of the conjugate of the output index
    for k in range(1, max_k + 1):
        shift = LaurentQT.term(1, 0, k * shift_unit)
        for lam, c in sorted(schur.coeffs.items(), reverse=True):
            specialized = c.substitute_q(1, -k) * shift
            try:
                quotient = specialized.exact_div(divisor)
            except InexactDivision:
                return _counterexample(mu, f"palindromic_k{k}", "schur", lam,
                                       "exact division", f"inexact: {specialized}")
            witness = _positivity_failure(quotient)
            if witness:
                return _counterexample(mu, f"palindromic_k{k}", "schur", lam,
                                       "nonnegative", witness)
            if not quotient.is_palindromic_in_t():
                return _counterexample(mu, f"palindromic_k{k}", "schur", lam,
                                       "palindromic", str(quotient))
    return {"mu": list(mu), "status": "pass"}


_CONJECTURES = {"haglund": scan_haglund_mu, "palindromic": scan_palindromic_mu}


def run_conjecture(which: str, max_n: int, max_k: int, progress=None) -> VerifyReport:
    if which not in _CONJECTURES:
        raise ValueError(f"unknown conjecture {which!r}")
    start = time.perf_counter()
    mus = [mu for n in range(1, max_n + 1) for mu in partitions_of(n)]
    results = _run_mapped(_CONJECTURES[which], [(mu, max_k) for mu in mus], progress)
    items, counterexample = _collect(results)
    return VerifyReport(f"conjecture:{which}", max_n, items, counterexample,
                        time.perf_counter() - start)
