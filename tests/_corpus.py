"""Seeded random multigraph corpora for property tests.

Everything here is deterministic given the Random instance, so corpus
tests are reproducible run to run.
"""

from __future__ import annotations

import random

import numpy as np

from nbrw import (
    Graph,
    IrreducibilityVerdict,
    build_graph,
    is_nb_irreducible,
    tracked_degrees,
)
from nbrw.graph import HALF_LOOP, WHOLE_LOOP

from _reference_walks import sample_walk


def pairing_graph(rng: random.Random, degrees: list[int], half_loop_prob: float = 0.0) -> Graph:
    """Random multigraph with the given degree sequence (random stub pairing).

    Produces parallel edges and whole-loops naturally; with
    ``half_loop_prob`` an extra half-loop is attached to one vertex.
    """
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    edges: list[tuple[int, int] | tuple[int, int, str]] = [
        (stubs[i], stubs[i + 1]) for i in range(0, len(stubs) - 1, 2)
    ]
    if len(stubs) % 2 == 1:
        edges.append((stubs[-1], stubs[-1], HALF_LOOP))
    if half_loop_prob and rng.random() < half_loop_prob:
        v = rng.randrange(len(degrees))
        edges.append((v, v, HALF_LOOP))
    return build_graph(len(degrees), edges)


def random_nb_irreducible(
    rng: random.Random,
    max_vertices: int = 10,
    degree_range: tuple[int, int] = (2, 5),
    half_loop_prob: float = 0.1,
) -> Graph:
    """Random NB-irreducible multigraph (rejection sampling)."""
    lo, hi = degree_range
    while True:
        n = rng.randint(2, max_vertices)
        degrees = [rng.randint(lo, hi) for _ in range(n)]
        if max(degrees) <= 2:
            degrees[rng.randrange(n)] = max(3, hi)
        if half_loop_prob == 0.0 and sum(degrees) % 2 == 1:
            degrees[rng.randrange(n)] += 1
        g = pairing_graph(rng, degrees, half_loop_prob=half_loop_prob)
        if is_nb_irreducible(g) is IrreducibilityVerdict.OK:
            return g


def random_low_growth_graph(rng: random.Random) -> Graph:
    """NB-irreducible graph with few branching darts, so exhaustive walk
    enumeration at length 12 stays cheap."""
    while True:
        n = rng.randint(4, 10)
        branching = rng.randint(2, 3)
        degrees = [3] * branching + [2] * (n - branching)
        rng.shuffle(degrees)
        g = pairing_graph(rng, degrees)
        if is_nb_irreducible(g) is IrreducibilityVerdict.OK:
            return g


def random_min_degree_three(rng: random.Random, max_vertices: int = 8) -> Graph:
    """Random NB-irreducible multigraph with minimum degree three."""
    return random_nb_irreducible(
        rng, max_vertices=max_vertices, degree_range=(3, 5), half_loop_prob=0.0
    )


def random_regular(rng: random.Random, degree: int = 3, max_vertices: int = 8) -> Graph:
    while True:
        n = rng.randint(3, max_vertices)
        if (n * degree) % 2 == 1:
            n += 1
        g = pairing_graph(rng, [degree] * n)
        if is_nb_irreducible(g) is IrreducibilityVerdict.OK:
            return g


def graphs_with_loops(rng: random.Random, count: int = 4) -> list[Graph]:
    """NB-irreducible multigraphs, the first half with a half-loop and the
    rest with a whole-loop, each with a suspended path of two darts or more."""
    wanted = {HALF_LOOP: count // 2, WHOLE_LOOP: count - count // 2}
    found: dict[str, list[Graph]] = {HALF_LOOP: [], WHOLE_LOOP: []}
    while any(len(found[kind]) < n for kind, n in wanted.items()):
        g = random_nb_irreducible(rng, max_vertices=8, half_loop_prob=0.5)
        kinds = {kind for _, _, kind in g.edges}
        for kind in (HALF_LOOP, WHOLE_LOOP):
            if kind in kinds and len(found[kind]) < wanted[kind] and g.suspended_paths.length.max() >= 2:
                found[kind].append(g)
                break
    return found[HALF_LOOP] + found[WHOLE_LOOP]


def scalar_walk_counts(g: Graph, length: int, seed: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Branch counts and end darts of ``sample_walk`` on each stream, one
    row per stream: the per-step reference the batch kernels reproduce."""
    degrees = tracked_degrees(g)
    outdeg = g.out_degree_vector().tolist()
    counts = np.zeros((len(streams), len(degrees)), dtype=np.int64)
    ends = np.zeros(len(streams), dtype=np.int32)
    for row, stream in enumerate(streams):
        darts = sample_walk(g, length, seed, stream=stream).darts
        for e in darts[:-1]:
            if outdeg[e] > 1:
                counts[row, degrees.index(outdeg[e])] += 1
        ends[row] = darts[-1]
    return counts, ends
