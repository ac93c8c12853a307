#!/usr/bin/env python3
"""Benchmark the certified rho of ``growth_verdict`` in-process.

Strict wheels have no potential, so rho starts from the solve on B reduced
to its branching darts; equal graphs start from the potential and certify
in one matvec.  For each graph the line gives the verdict, the power steps
on B (``iterations``), every operator application (``matvecs``, as in
``analyze --json``) and the best time of ``growth_verdict`` over fresh
copies of the graph, so the cached dart layouts are built in every run.

    python benchmarks/bench_rho.py --repeat 3
    python benchmarks/bench_rho.py --graph w4097-2-12 --tol 1e-13
"""

import argparse
import time

from nbrw import equal_growth_wheel, growth_verdict, wheel_graph

GRAPHS = {
    "w257-3-8": lambda: wheel_graph(257, 3, 8),
    "w129-4-11": lambda: wheel_graph(129, 4, 11),
    "w1025-2-12": lambda: wheel_graph(1025, 2, 12),
    "w4097-2-12": lambda: wheel_graph(4097, 2, 12),
    "hk8": lambda: equal_growth_wheel(8),
    "hk10": lambda: equal_growth_wheel(10),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", choices=sorted(GRAPHS), action="append",
                        help="graph to run (repeatable); default: all of them")
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'graph':>11} {'darts':>7} {'verdict':>7} {'iterations':>10} {'matvecs':>7} {'best s':>8}  rho")
    for name in args.graph or GRAPHS:
        best = float("inf")
        for _ in range(args.repeat):
            g = GRAPHS[name]()
            start = time.perf_counter()
            verdict = growth_verdict(g, rel_tol=args.tol)
            best = min(best, time.perf_counter() - start)
        rho = verdict.to_json()["rho"]
        print(f"{name:>11} {g.dart_count:>7} {verdict.status:>7} {rho['iterations']:>10} {rho['matvecs']:>7} "
              f"{best:>8.4f}  {rho['value']!r} in [{rho['low']!r}, {rho['high']!r}]")


if __name__ == "__main__":
    main()
