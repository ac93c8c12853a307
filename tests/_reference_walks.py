"""Walk-level oracles that the package no longer exports, kept for the
tests that compare against them:

* :func:`dart_transitions`, the successor list of one dart read straight
  off the definition;
* :func:`count_nb_walks` and :func:`enumerate_nb_walks`, the exact number
  of non-backtracking walks from a dart, by big-integer iteration and by
  recursive enumeration;
* :func:`sample_walk`, the per-step scalar walk whose streams the batch
  kernels reproduce bit for bit;
* :func:`total_variation`, the exact distance from an exact bit law to an
  empirical histogram.

Kept verbatim, apart from imports and from ``total_variation``, which was a
method of :class:`~nbrw.walks.ExactBitDistribution` and takes it as its
first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nbrw.graph import Graph
from nbrw.operators import require_nb_irreducible
from nbrw.walks import ExactBitDistribution, _tables

import _reference_rng as _rng


def out_darts(g: Graph, vertex: int) -> list[int]:
    """Indices of darts whose tail is ``vertex``, ascending."""
    offsets, flat = g.out_dart_table
    return flat[offsets[vertex]:offsets[vertex + 1]].tolist()


def dart_transitions(g: Graph, dart_index: int) -> list[int]:
    """Darts f with tail(f) = head(e) and f != reverse(e), ascending by index.

    The exclusion bars only the exact reverse dart, so a parallel copy of
    the reversed edge is a legal continuation.  A half-loop dart is its own
    reverse and is therefore excluded from its own continuations.
    """
    reverse = int(g.dart_reverse[dart_index])
    return [f for f in out_darts(g, int(g.dart_head[dart_index])) if f != reverse]


def count_nb_walks(g: Graph, dart_index: int, length: int) -> int:
    """Exact number of non-backtracking walks of ``length`` steps from a dart.

    Big-integer vector iteration of the factored operator,
    ``x[e] <- outsum[head e] - x[reverse e]`` starting from the all-ones
    vector, so the result never overflows.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not (0 <= dart_index < g.dart_count):
        raise ValueError("dart index out of range")
    leaving = [out_darts(g, v) for v in range(g.vertex_count)]
    head, reverse = g.dart_head.tolist(), g.dart_reverse.tolist()
    x = [1] * g.dart_count
    for _ in range(length):
        outsum = [sum(map(x.__getitem__, darts)) for darts in leaving]
        x = list(map(int.__sub__, map(outsum.__getitem__, head), map(x.__getitem__, reverse)))
    return x[dart_index]


def enumerate_nb_walks(g: Graph, dart_index: int, length: int) -> int:
    """Count the same walks by explicit recursive enumeration.

    Independent of :func:`count_nb_walks` (no shared iteration); intended
    as a brute-force cross-check for small lengths, so it refuses
    length > 12.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > 12:
        raise ValueError("enumeration is a desk-scale oracle; length must be <= 12")

    def walk(e: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        head = int(g.dart_head[e])
        rev = int(g.dart_reverse[e])
        for f in out_darts(g, head):
            if f != rev:
                total += walk(f, remaining - 1)
        return total

    return walk(dart_index, length)


@dataclass(frozen=True)
class WalkSample:
    """One sampled walk: darts e_0..e_l and the bits consumed by e_0..e_{l-1}."""

    darts: tuple[int, ...]
    bits: float


def sample_walk(g: Graph, length: int, seed: int, stream: int = 0) -> WalkSample:
    """Sample one stationary walk of ``length`` steps.

    The initial dart is uniform; every step picks uniformly among the
    non-backtracking continuations.  ``(seed, stream)`` fully determines
    the walk; batch sample number s of the same seed is ``stream=s``.
    """
    require_nb_irreducible(g)
    if length < 0:
        raise ValueError("length must be non-negative")
    out_flat, dart_table, _, _ = map(np.asarray, _tables(g))
    out_flat, (first, skip, outdeg, _, _) = memoryview(out_flat), map(memoryview, dart_table)
    key = _rng.stream_key(seed, stream)
    e = _rng.draw(key, 0) % g.dart_count
    darts = [e]
    bits = 0.0
    for i in range(1, length + 1):
        d = outdeg[e]
        if d > 1:
            bits += math.log2(d)
            j = _rng.draw(key, i) % d
        else:
            j = 0
        k = first[e] + j
        e = out_flat[k + (k >= skip[e])]
        darts.append(e)
    return WalkSample(darts=tuple(darts), bits=bits)


def total_variation(dist: ExactBitDistribution, histogram: dict[tuple[int, ...], int], samples: int) -> float:
    """Exact TV distance to an empirical count-vector histogram."""
    keys = set(dist.probabilities) | set(histogram)
    tv = Fraction(0)
    for key in keys:
        empirical = Fraction(histogram.get(key, 0), samples)
        tv += abs(empirical - dist.probabilities.get(key, Fraction(0)))
    return float(tv / 2)
