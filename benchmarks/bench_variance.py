#!/usr/bin/env python3
"""Benchmark the asymptotic variance solve, as a command and in-process.

Commands: one ``python -m nbrw asymvar`` process on hk12 and one on
w4097-2-12, both above the dense cutoff, so the sparse LU and scipy's
import are part of the time.  Wall time and peak RSS come from
``os.wait4``.  The command is forked by a small launcher interpreter that
imports nothing, because a child's peak RSS starts from its parent's
resident size at the fork.

In-process: the best time of ``asymptotic_variance`` over fresh copies of
each graph, so λ and the suspended-path layout are built in every run.
The line gives the darts, the branching vertices (the unknowns of the
reduced system) and which solve ran: dense up to the cutoff, sparse LU
above it.  ``--reference`` adds the difference of each value to the D + V
split solve that the reduced solve replaced (``tests/_reference_variance.py``;
several seconds on hk12).

    python benchmarks/bench_variance.py
    python benchmarks/bench_variance.py --graph w129-4-11 --reference
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from nbrw import asymptotic_variance, equal_growth_wheel, save_graph, wheel_graph
from nbrw.variance import _DENSE_UNKNOWNS

ROOT = Path(__file__).resolve().parents[1]

# dense solves first: once scipy is loaded, its OpenBLAS threads and
# numpy's can stall a threaded dense LU by 0.1 s (CHANGES.md)
GRAPHS = {
    "w129-4-11": lambda: wheel_graph(129, 4, 11),
    "hk10": lambda: equal_growth_wheel(10),
    "w1025-2-12": lambda: wheel_graph(1025, 2, 12),
    "hk12": lambda: equal_growth_wheel(12),
    "w4097-2-12": lambda: wheel_graph(4097, 2, 12),
}

# argv: the command; prints wall seconds and peak RSS in KiB of the child
_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def run_command(argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and standard output of one process."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], capture_output=True, text=True, env=env)
    wall, rss_kib, code = proc.stderr.split()[-3:]
    if int(code) != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}:\n{proc.stderr}")
    return float(wall), int(rss_kib) / 1024, proc.stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--graph", choices=sorted(GRAPHS), action="append",
                        help="graph to solve in-process (repeatable); default: all of them")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--reference", action="store_true", help="compare with the D + V split solve")
    args = parser.parse_args()
    if args.reference:
        sys.path.insert(0, str(ROOT / "tests"))
        from _reference_variance import asymptotic_variance as split_solve
    references = {}

    def versus_reference(name: str, g, value: float) -> str:
        if not args.reference:
            return ""
        if name not in references:
            references[name] = split_solve(g)
        split = references[name]
        if split > 1e-6:
            return f"  {abs(value - split) / split:.1e} relative to the split solve"
        return f"  {abs(value - split):.1e} absolute to the split solve {split!r}"

    solves = []
    for name in args.graph or GRAPHS:
        best = float("inf")
        for _ in range(args.repeat):
            g = GRAPHS[name]()
            start = time.perf_counter()
            limit = asymptotic_variance(g)
            best = min(best, time.perf_counter() - start)
        solves.append((name, g, best, limit))

    print(f"{'asymvar':>11} {'wall s':>7} {'peak MB':>8}  limit")
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("hk12", "w4097-2-12"):
            path = Path(tmp) / f"{name}.txt"
            g = GRAPHS[name]()
            save_graph(g, path)
            wall, rss, out = run_command(["-m", "nbrw", "asymvar", str(path)])
            limit = json.loads(out)["limit"]
            print(f"{name:>11} {wall:>7.3f} {rss:>8.1f}  {limit!r}{versus_reference(name, g, limit)}")

    print(f"\n{'graph':>11} {'darts':>7} {'unknowns':>8} {'solve':>6} {'best s':>8}  limit")
    for name, g, best, limit in solves:
        unknowns = int(np.count_nonzero(g.degrees >= 3))
        solve = "dense" if unknowns <= _DENSE_UNKNOWNS else "sparse"
        print(f"{name:>11} {g.dart_count:>7} {unknowns:>8} {solve:>6} {best:>8.4f}  "
              f"{limit!r}{versus_reference(name, g, limit)}")

if __name__ == "__main__":
    main()
