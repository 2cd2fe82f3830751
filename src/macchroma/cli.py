"""Command-line front end.

Subcommands: ``jqt`` and ``jack`` compute expansions by any of the four
routes, ``chromatic`` computes chromatic/LLT expansions of attacking-type
graphs, ``verify`` runs the cross-checking suites, and ``conjecture`` runs
the specialization scans.

``--mu`` always names the diagram partition; computed expansions are indexed
by its conjugate, which is how the filling formulas hand them over.  Pass
``--prime`` to give the output index instead and let the tool conjugate.

Exit codes: 0 success, 2 usage error, 3 identity violation, 4 conjecture
counterexample found.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jack as jackmod
from . import macdonald as macmod
from .chromatic import IdentityViolation, llt_g, x_g, x_g_power, x_g_schur
from .graphs import attacking_data
from .shapes import conjugate, parse_partition
from .symfunc import BASES, convert
from .verify import CONJECTURES, SUITES, run_conjecture, run_suites

_JQT_METHODS = macmod.ROUTES
_JACK_METHODS = jackmod.ROUTES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macchroma",
        description="Exact Macdonald/Jack/chromatic expansions with cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, methods):
        p.add_argument("--mu", required=True,
                       help="diagram partition, comma separated (e.g. 3,1)")
        p.add_argument("--prime", action="store_true",
                       help="treat --mu as the output index and conjugate internally")
        p.add_argument("--basis", choices=BASES, default="monomial")
        p.add_argument("--method", choices=tuple(methods), default=next(iter(methods)))
        p.add_argument("--format", choices=("text", "json"), default="text")

    add_common(sub.add_parser("jqt", help="integral form Macdonald polynomial of the conjugate diagram"),
               _JQT_METHODS)
    add_common(sub.add_parser("jack", help="Jack polynomial of the conjugate diagram"),
               _JACK_METHODS)

    p_chrom = sub.add_parser("chromatic", help="chromatic or LLT expansion of an attacking-type graph")
    p_chrom.add_argument("--mu", required=True)
    p_chrom.add_argument("--graph", default="attacking",
                         help="attacking | augmented | mask:<bitstring over down-edges>")
    p_chrom.add_argument("--basis", choices=BASES, default="monomial")
    p_chrom.add_argument("--llt", action="store_true",
                         help="use all colorings instead of proper colorings")
    p_chrom.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run cross-verification suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--max-n", type=int, default=3)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_conj = sub.add_parser("conjecture", help="run specialization conjecture scans")
    p_conj.add_argument("--which", choices=CONJECTURES, required=True)
    p_conj.add_argument("--max-n", type=int, default=3)
    p_conj.add_argument("--max-k", type=int, default=3)
    p_conj.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(f, fmt: str):
    if fmt == "json":
        print(json.dumps(f.to_json_dict()))
    else:
        print(f.to_text())


def _progress(result: dict):
    mu = ",".join(map(str, result["mu"]))
    status = result.get("status", "fail")
    print(f"  mu=({mu}) {status}", file=sys.stderr)


def _resolve_mu(args):
    mu = parse_partition(args.mu)
    if not mu:
        raise ValueError("mu must have at least one part")
    if getattr(args, "prime", False):
        mu = conjugate(mu)
    return mu


def _select_graph(mu, selector: str):
    data = attacking_data(mu)
    if selector == "attacking":
        return data.g
    if selector == "augmented":
        return data.g_plus
    if selector.startswith("mask:"):
        bits = selector[len("mask:"):]
        if len(bits) != len(data.added) or any(b not in "01" for b in bits):
            raise ValueError(
                f"mask must be {len(data.added)} binary digits for mu={','.join(map(str, mu))}"
            )
        return data.sandwich(int(bits[::-1] or "0", 2))
    raise ValueError(f"unknown graph selector {selector!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("jqt", "jack"):
            methods = _JQT_METHODS if args.command == "jqt" else _JACK_METHODS
            f = convert(methods[args.method](_resolve_mu(args)), args.basis)
            _emit(f, args.format)
            return 0
        if args.command == "chromatic":
            mu = _resolve_mu(args)
            h = _select_graph(mu, args.graph)
            if args.llt:
                f = convert(llt_g(h), args.basis)
            elif args.basis == "schur":
                f = x_g_schur(h)
            elif args.basis == "power":
                f = x_g_power(h)
            else:
                f = x_g(h)
            _emit(f, args.format)
            return 0
        if args.command == "verify":
            if args.max_n < 1:
                raise ValueError("--max-n must be at least 1")
            reports = run_suites(args.suite, args.max_n, progress=_progress)
            if args.format == "json":
                print(json.dumps([r.to_json_dict() for r in reports]))
            else:
                for report in reports:
                    print(report.to_text())
            return 0 if all(r.ok() for r in reports) else 3
        if args.command == "conjecture":
            if args.max_n < 1 or args.max_k < 1:
                raise ValueError("--max-n and --max-k must be at least 1")
            report = run_conjecture(args.which, args.max_n, args.max_k, progress=_progress)
            _emit(report, args.format)
            return 0 if report.ok() else 4
    except IdentityViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
