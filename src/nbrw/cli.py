"""Command-line front end.

Subcommands: analyze, gen, walk, pdf, asymvar.  Exit codes follow a
shell-friendly contract: 0 when the two growth rates are equal (or the
command simply succeeded), 1 when they differ, 2 for invalid input, a
failed precondition or a rho bracket that rounding keeps wider than
``--tol``, 64 for usage errors.

Each command imports the modules it runs: ``gen`` writes the families'
edge lists, and ``pdf`` and ``walk`` read the dart tables that
``nbrw._kernels.walk_tables`` builds from the parsed edge list, all
without ``graph`` or ``operators``, and without numpy when the compiled
kernel is built; only ``analyze`` and ``asymvar`` load them and the
criteria, once the parsed edge list has passed the size test.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from typing import TYPE_CHECKING

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


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _graph_summary(vertex_count: int, edge_count: int, degrees) -> dict:
    """The ``graph`` block of the analyze report, from the vertex degrees:
    of every vertex, or only of the vertices that darts leave."""
    # count the nonzero degrees; the other vertices, however many the header declares, have degree 0
    counts = Counter(filter(None, degrees))
    darts = sum(d * c for d, c in counts.items())
    counts[0] = vertex_count - sum(counts.values())
    histogram = {str(d): counts[d] for d in sorted(counts) if counts[d]}
    return {"vertices": vertex_count, "edges": edge_count, "darts": darts, "degree_histogram": histogram}


def cmd_analyze(args) -> int:
    import json

    from ._text import IrreducibilityVerdict, cannot_connect, number_darts, parse_text

    edge_list = vertex_count, edges = parse_text(_read_input(args.input))
    if cannot_connect(vertex_count, len(edges)):
        degrees, verdict = Counter(number_darts(edges)[0]).values(), IrreducibilityVerdict.NOT_CONNECTED
    else:
        from .conditions import growth_verdict
        from .graph import Graph

        g = Graph(edge_list)
        degrees, verdict = g.degrees.tolist(), g.irreducibility
    report: dict = {"graph": _graph_summary(vertex_count, len(edges), degrees), "nb_irreducible": verdict.value}
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

        variance = asymptotic_variance(g)

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


# per family of ``gen``: its options (integers, but for the base graph ``input``), its edge
# list from nbrw.families and the options' values in order, and its comment, formatted with them
_GEN_FAMILIES = {
    "wheel": (("n", "l1", "l2"), lambda f, n, l1, l2: f.wheel_edges(n, l1, l2), "wheel n={n} l1={l1} l2={l2}"),
    "hk": (("k",), lambda f, k: f.wheel_edges(*f.equal_growth_wheel_parameters(k)), "hk k={k}"),
    "subdivide": (("m", "input"), lambda f, m, base: f.subdivided_edges(*base, m), "subdivision m={m}"),
    "k4e": ((), lambda f: f.K4_MINUS_EDGE, "K4 minus an edge"),
    "complete": (("n",), lambda f, n: f.complete_edges(n), "complete n={n}"),
    "bipartite": (("a", "b"), lambda f, a, b: f.complete_bipartite_edges(a, b), "complete bipartite a={a} b={b}"),
}


def cmd_gen(args) -> int:
    from . import families
    from ._text import format_text, parse_text

    options, build, comment = _GEN_FAMILIES[args.family]
    # the base graph is parsed outside the try: a bad input is invalid input, not a usage error
    values = [parse_text(_read_input(args.input)) if o == "input" else getattr(args, o) for o in options]
    try:
        graph = build(families, *values)
    except ValueError as exc:
        print(f"gen {args.family}: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(format_text(*graph, comment.format_map(vars(args))), args.output)
    return 0


def cmd_walk(args) -> int:
    from ._text import parse_text
    from .walks import histogram_csv, run_walks

    workers = max(1, args.workers)
    batch = run_walks(parse_text(_read_input(args.input)), args.length, args.samples, args.seed, workers=workers)
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
    from ._text import parse_text
    from .walks import distribution_csv, exact_bit_distribution

    dist = exact_bit_distribution(parse_text(_read_input(args.input)), args.length)
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

    from ._text import IrreducibilityVerdict, cannot_connect, parse_text, require_irreducible

    edge_list = parse_text(_read_input(args.input))
    if cannot_connect(edge_list.vertex_count, len(edge_list.edges)):  # refused before numpy loads
        require_irreducible(IrreducibilityVerdict.NOT_CONNECTED)
    from .graph import Graph
    from .variance import variance_report

    print(json.dumps(variance_report(Graph(edge_list), args.truncate).to_json()))
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
    for family, (options, _, _) in _GEN_FAMILIES.items():
        p_family = gen_sub.add_parser(family)
        for option in options:
            if option == "input":
                p_family.add_argument("-i", "--input", default="-", help="base graph file (default stdin)")
            else:
                p_family.add_argument(f"--{option}", type=int, required=True)
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
    # invalid graphs, unmet preconditions and CapabilityError are ValueErrors, an unreadable input or unwritable
    # output an OSError; PowerIterationError, looked up once raised, can only come from a loaded nbrw.operators
    except (OSError, ValueError, getattr(sys.modules.get("nbrw.operators"), "PowerIterationError", OSError)) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
