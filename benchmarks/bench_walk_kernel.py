#!/usr/bin/env python3
"""Benchmark the compiled walk kernel against the numpy fallback.

Both engines draw from the same counter-based stream and must produce
identical count matrices; the benchmark verifies that while timing them.
The header line gives the share of darts with outdeg 1: the kernels jump
over those, so throughput grows with it.

    python benchmarks/bench_walk_kernel.py --samples 100000 --len 1000 --graph hk10
"""

import argparse
import time

import numpy as np

from nbrw import equal_growth_wheel, k4_minus_edge, run_walks, wheel_graph
from nbrw._kernels import available_engines

GRAPHS = {
    "k4e": k4_minus_edge,
    "w523": lambda: wheel_graph(5, 2, 3),
    "w17-2-5": lambda: wheel_graph(17, 2, 5),
    "hk10": lambda: equal_growth_wheel(10),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--len", dest="length", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--graph", choices=sorted(GRAPHS), default="k4e")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    g = GRAPHS[args.graph]()
    steps = args.samples * args.length
    path_share = float((g.out_degree_vector() == 1).mean())
    print(f"graph={args.graph} darts={g.dart_count} outdeg-1 share={path_share:.2f} samples={args.samples} "
          f"length={args.length} workers={args.workers} ({steps:.2e} steps)")

    results = {}
    for engine in available_engines():
        best = float("inf")
        batch = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            batch = run_walks(g, args.length, args.samples, args.seed,
                              workers=args.workers, engine=engine)
            best = min(best, time.perf_counter() - start)
        results[engine] = (best, batch)
        print(f"{engine:>9}: {best:8.3f}s  {steps / best:.3e} steps/s")

    if len(results) == 2:
        (a, batch_a), (b, batch_b) = results["compiled"], results["python"]
        identical = np.array_equal(batch_a.counts, batch_b.counts) and np.array_equal(
            batch_a.end_darts, batch_b.end_darts
        )
        print(f"identical output: {identical}   speedup: {b / a:.1f}x")
        if not identical:
            raise SystemExit("engines disagree")


if __name__ == "__main__":
    main()
