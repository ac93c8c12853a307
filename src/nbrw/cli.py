"""Command-line front end.

Subcommands: analyze, gen, walk, pdf, asymvar.  Exit codes follow a
shell-friendly contract: 0 when the two growth rates are equal (or the
command simply succeeded), 1 when they differ, 2 for invalid input, a
failed precondition or a rho bracket that rounding keeps wider than
``--tol``, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph, IrreducibilityVerdict, format_graph_text, load_graph, parse_graph_text
from .operators import PowerIterationError

# each command imports the modules it runs: gen, walk and pdf load neither
# the criteria nor json
if TYPE_CHECKING:
    from .conditions import GrowthVerdict

EXIT_EQUAL = 0
EXIT_STRICT = 1
EXIT_INVALID = 2
EXIT_USAGE = 64

# a float64 Collatz-Wielandt bracket is a few ulps wide at best
MIN_TOL = 1e-15


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= MIN_TOL):
        raise argparse.ArgumentTypeError(f"must be a finite number >= {MIN_TOL:g}, got {text!r}")
    return value


def _walk_length(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value >= 2**63:  # the kernels count steps in int64
        raise argparse.ArgumentTypeError(f"must be below 2**63, got {text!r}")
    return value


def _load_graph_arg(path: str) -> Graph:
    return parse_graph_text(sys.stdin.read()) if path == "-" else load_graph(path)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _effective_workers(requested: int) -> int:
    cap = os.environ.get("NBRW_THREADS")
    if cap:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError:
            print(f"error: NBRW_THREADS must be an integer, got {cap!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None
    return max(1, requested)


def _degree_histogram(g: Graph) -> dict[str, int]:
    counts = np.bincount(g.degrees)  # degrees are at most 2 * edges, whatever the header says
    return {str(d): int(counts[d]) for d in np.flatnonzero(counts).tolist()}


def cmd_analyze(args) -> int:
    import json

    from .conditions import growth_verdict

    g = _load_graph_arg(args.input)
    verdict = g.irreducibility
    report: dict = {
        "graph": {
            "vertices": g.vertex_count,
            "edges": len(g.edges),
            "darts": g.dart_count,
            "degree_histogram": _degree_histogram(g),
        },
        "nb_irreducible": verdict.value,
    }
    if verdict is not IrreducibilityVerdict.OK:
        report["error"] = f"graph is not NB-irreducible: {verdict.value}"
        if args.json:
            print(json.dumps(report))
        else:
            _print_graph_summary(report)
            print(f"error: {report['error']}")
        return EXIT_INVALID

    result = growth_verdict(g, rel_tol=args.tol)
    variance = None
    if args.with_variance:
        from .variance import asymptotic_variance

        # equal rates: the cycle criterion's potential makes f a coboundary,
        # so the bit total telescopes and its variance is exactly 0
        variance = 0.0 if result.equal else asymptotic_variance(g)

    if args.json:
        report.update(result.to_json())
        if variance is not None:
            report["asymptotic_variance"] = variance
        print(json.dumps(report))
    else:
        _print_analysis(report, result, variance)
    return EXIT_EQUAL if result.equal else EXIT_STRICT


def _print_graph_summary(report: dict) -> None:
    graph = report["graph"]
    histogram = ", ".join(f"deg {d}: {c}" for d, c in graph["degree_histogram"].items())
    print(f"graph: {graph['vertices']} vertices, {graph['edges']} edges, {graph['darts']} darts")
    print(f"degrees: {histogram}")
    print(f"nb_irreducible: {report['nb_irreducible']}")


def _format_exact(pairs: list) -> str:
    if not pairs:
        return "1"
    return " * ".join(f"{p}^({num}/{den})" if den != 1 else f"{p}^{num}" for p, num, den in pairs)


def _print_analysis(report: dict, result: GrowthVerdict, variance: float | None) -> None:
    _print_graph_summary(report)
    rho = result.perron
    print(f"lambda: {result.lambda_float:.12f} = {_format_exact(result.lambda_exact.as_pairs())}")
    print(f"rho:    {rho.value:.12f} (rel_tol {rho.rel_tol:g}, {rho.iterations} iterations)")
    print(f"        bracket [{rho.low:.15g}, {rho.high:.15g}]")
    print(f"gap:    {result.gap:.12g}")
    for name, verdict in (
        ("suspended path condition", result.path_condition),
        ("cycle condition", result.cycle_condition),
    ):
        print(f"{name}: {'holds' if verdict.holds else 'violated'}")
        if verdict.witness_path is not None:
            print(f"  witness path darts: {list(verdict.witness_path.darts)}")
        elif verdict.witness_cycle is not None:
            print(f"  witness cycle darts: {list(verdict.witness_cycle)}")
    if variance is not None:
        print(f"asymptotic_variance: {variance:.12g}")
    print(f"verdict: {result.status}")


def cmd_gen(args) -> int:
    from . import families

    try:
        if args.family == "wheel":
            g = families.wheel_graph(args.n, args.l1, args.l2)
            comment = f"wheel n={args.n} l1={args.l1} l2={args.l2}"
        elif args.family == "hk":
            g = families.equal_growth_wheel(args.k)
            comment = f"hk k={args.k}"
        elif args.family == "subdivide":
            base = _load_graph_arg(args.input)
            g = families.subdivide(base, args.m)
            comment = f"subdivision m={args.m}"
        elif args.family == "k4e":
            g = families.k4_minus_edge()
            comment = "K4 minus an edge"
        elif args.family == "complete":
            g = families.complete_graph(args.n)
            comment = f"complete n={args.n}"
        elif args.family == "bipartite":
            g = families.complete_bipartite_graph(args.a, args.b)
            comment = f"complete bipartite a={args.a} b={args.b}"
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown family {args.family}")
    except ValueError as exc:
        print(f"gen: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(format_graph_text(g, comment), args.output)
    return 0


def cmd_walk(args) -> int:
    from .walks import histogram_csv, run_walks

    workers = _effective_workers(args.workers)
    g = _load_graph_arg(args.input)
    batch = run_walks(g, args.length, args.samples, args.seed, workers=workers)
    stats = batch.bit_stats()
    print(f"length: {stats.length}")
    print(f"samples: {stats.sample_count}")
    print(f"seed: {stats.seed}")
    print(f"engine: {batch.engine}")
    print(f"workers: {workers}")
    print(f"mean_bits_per_step: {stats.mean_bits_per_step:.9f}")
    print(f"variance_of_bits: {stats.variance_of_bits:.9f}")
    if stats.length:
        print(f"variance_per_step: {stats.variance_of_bits / stats.length:.9f}")
    print(f"standard_error_of_mean: {stats.standard_error_of_mean:.3e}")
    if args.csv:
        _write_output(histogram_csv(batch), args.csv)
    return 0


def cmd_pdf(args) -> int:
    from .walks import distribution_csv, exact_bit_distribution

    g = _load_graph_arg(args.input)
    dist = exact_bit_distribution(g, args.length)
    csv_text = distribution_csv(dist)
    if args.csv:
        _write_output(csv_text, args.csv)
        print(f"support: {len(dist.probabilities)} count vectors")
        print(f"mean_bits_per_step: {dist.mean_bits() / max(dist.length, 1):.9f}")
        print(f"variance_of_bits: {dist.variance_bits():.9f}")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_asymvar(args) -> int:
    import json

    from .variance import variance_report

    g = _load_graph_arg(args.input)
    print(json.dumps(variance_report(g, args.truncate).to_json()))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nbrw", description="Non-backtracking walk growth-rate analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="growth-rate equality report", parents=[], add_help=True)
    p_analyze.add_argument("input", help="graph file (or - for stdin)")
    p_analyze.add_argument(
        "--tol", type=_tolerance, default=1e-12, help=f"relative width of the rho bracket (>= {MIN_TOL:g})"
    )
    p_analyze.add_argument("--json", action="store_true", help="emit a JSON report")
    p_analyze.add_argument("--with-variance", action="store_true", help="include the asymptotic variance")
    p_analyze.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    specs = {
        "wheel": [("--n", int, True), ("--l1", int, True), ("--l2", int, True)],
        "hk": [("--k", int, True)],
        "subdivide": [("--m", int, True), ("--input", str, False)],
        "k4e": [],
        "complete": [("--n", int, True)],
        "bipartite": [("--a", int, True), ("--b", int, True)],
    }
    for family, options in specs.items():
        p_family = gen_sub.add_parser(family)
        for flag, ftype, required in options:
            if flag == "--input":
                p_family.add_argument("-i", "--input", default="-", help="base graph file (default stdin)")
            else:
                p_family.add_argument(flag, type=ftype, required=required)
        p_family.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p_family.set_defaults(func=cmd_gen)

    p_walk = sub.add_parser("walk", help="Monte Carlo bit statistics")
    p_walk.add_argument("input")
    p_walk.add_argument("--len", dest="length", type=_walk_length, required=True)
    p_walk.add_argument("--samples", type=int, required=True)
    p_walk.add_argument("--seed", type=int, default=0)
    p_walk.add_argument("--workers", type=int, default=1)
    p_walk.add_argument("--csv", default=None, help="write the empirical bit histogram")
    p_walk.set_defaults(func=cmd_walk)

    p_pdf = sub.add_parser("pdf", help="exact bit distribution as CSV")
    p_pdf.add_argument("input")
    p_pdf.add_argument("--len", dest="length", type=int, required=True)
    p_pdf.add_argument("--csv", default=None, help="output path (default stdout)")
    p_pdf.set_defaults(func=cmd_pdf)

    p_var = sub.add_parser("asymvar", help="asymptotic normalized variance as JSON")
    p_var.add_argument("input")
    p_var.add_argument("--truncate", type=int, nargs="*", default=[])
    p_var.set_defaults(func=cmd_asymvar)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # invalid graphs, unmet preconditions and CapabilityError are ValueErrors;
    # an unreadable input or unwritable output is an OSError
    except (OSError, PowerIterationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
