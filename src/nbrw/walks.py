"""Sampling the walk and the exact law of its random-bit consumption.

A length-l walk consumes log2(outdeg(e)) random bits at each of its first
l darts.  Bit totals are never handled as floating-point keys: a walk's
consumption is an integer vector counting how often each distinct
branching degree (> 1) was left, and bit values are reconstructed as
sum(count * log2(degree)) only at the edges of the API.

The exact distribution is a dynamic program over the reachable (dart,
count vector) states with big-integer walk counts; each state's
probability has the closed form  count / (dart_count * prod(degree**count)).
Each dart keeps one dict from count vector, as one integer key, to walk
count, so an equal graph, whose bit total telescopes, stores a few states
per dart at any length.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _rng
from .graph import Graph
from .operators import PreconditionError, require_nb_irreducible


class CapabilityError(ValueError):
    """The exact distribution is limited to two distinct branching degrees."""


def tracked_degrees(g: Graph) -> tuple[int, ...]:
    """Distinct branching degrees (outdeg > 1), ascending."""
    # np.unique without return_* flags would import numpy.ma
    return tuple(d for d in np.flatnonzero(np.bincount(g.out_degree_vector())).tolist() if d > 1)


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
    out_flat, dart_table, _, _ = _walk_tables(g)
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


@dataclass(frozen=True)
class BitStats:
    """Sample statistics of the total bit consumption of length-l walks.

    ``variance_of_bits`` is the unbiased sample variance of the total;
    ``standard_error_of_mean`` is the standard error of
    ``mean_bits_per_step``.
    """

    length: int
    sample_count: int
    mean_bits_per_step: float
    variance_of_bits: float
    standard_error_of_mean: float
    seed: int


class WalkBatch:
    """Result of a batch run: per-sample branch-count vectors.

    All statistics derive from exact integer aggregates of the count
    matrix, so they are identical for any worker count or engine.
    """

    def __init__(self, g: Graph, length: int, seed: int, degrees: tuple[int, ...],
                 counts: np.ndarray, end_darts: np.ndarray, engine: str):
        self.length = length
        self.seed = seed
        self.degrees = degrees
        self.counts = counts
        self.end_darts = end_darts
        self.engine = engine
        self.dart_count = g.dart_count

    @property
    def sample_count(self) -> int:
        return self.counts.shape[0]

    def bit_stats(self) -> BitStats:
        n = self.sample_count
        if n < 2:
            raise PreconditionError("variance needs at least 2 samples")
        logs = [math.log2(v) for v in self.degrees]
        # each moment sums n products of two counts: past 2**63 int64 would wrap, so use Python ints
        exact = n * int(self.counts.max(initial=0)) ** 2 >= 2**63
        counts = self.counts.astype(object if exact else np.int64)
        s1 = [int(x) for x in counts.sum(axis=0)]
        m2 = counts.T @ counts
        total_bits = sum(l * s for l, s in zip(logs, s1))
        variance = 0.0
        for a, la in enumerate(logs):
            for b, lb in enumerate(logs):
                central = Fraction(n * int(m2[a, b]) - s1[a] * s1[b], n)
                variance += la * lb * float(central)
        variance /= n - 1
        mean_per_step = total_bits / n / self.length if self.length else 0.0
        sem = math.sqrt(max(variance, 0.0) / n) / self.length if self.length else 0.0
        return BitStats(
            length=self.length,
            sample_count=n,
            mean_bits_per_step=mean_per_step,
            variance_of_bits=max(variance, 0.0),
            standard_error_of_mean=sem,
            seed=self.seed,
        )

    def histogram(self) -> dict[tuple[int, ...], int]:
        """Occurrences of each branch-count vector, in ascending order."""
        rows = self.counts[np.lexsort(self.counts.T[::-1])]  # the first column is the primary key
        starts = np.flatnonzero(np.append(True, (rows[1:] != rows[:-1]).any(axis=1)))
        runs = np.diff(np.append(starts, len(rows)))
        return dict(zip(map(tuple, rows[starts].tolist()), runs.tolist()))

    def end_dart_counts(self) -> np.ndarray:
        return np.bincount(self.end_darts, minlength=self.dart_count)


def _walk_tables(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """``out_flat``, the darts grouped by tail; ``dart_table``, rows ``first``,
    ``skip``, ``outdeg``, ``anchor`` and ``dist`` with one column per dart;
    each dart's index into the tracked degrees (-1 for outdeg 1); and the
    tracked degrees.  Built once per (immutable) graph, so read-only.

    The successors of e are the darts leaving head(e), at ``first[e]``
    onwards in ``out_flat``, minus reverse(e), at ``skip[e]``; so e's j-th
    successor (ascending, j < outdeg(e)) is ``out_flat[k + (k >= skip[e])]``
    with ``k = first[e] + j``.  ``anchor`` and ``dist`` are the rows of
    ``Graph.suspended_paths``: a walk on e reaches ``anchor[e]`` ``dist[e]``
    steps later without a draw.
    """
    if not hasattr(g, "_walk_table_cache"):
        offsets, out_flat = g.out_dart_table
        position = np.empty(g.dart_count, dtype=np.int64)
        position[out_flat] = np.arange(g.dart_count)
        outdeg = g.out_degree_vector()
        paths = g.suspended_paths
        dart_table = np.stack((offsets[g.dart_head], position[g.dart_reverse], outdeg, paths.anchor, paths.dist))
        degrees = tracked_degrees(g)
        value_index = np.full(g.dart_count, -1, dtype=np.int32)
        for i, d in enumerate(degrees):
            value_index[outdeg == d] = i
        dart_table.flags.writeable = value_index.flags.writeable = False
        g._walk_table_cache = out_flat, dart_table, value_index, degrees
    return g._walk_table_cache


def run_walks(
    g: Graph,
    length: int,
    samples: int,
    seed: int,
    workers: int = 1,
    engine: str | None = None,
) -> WalkBatch:
    """Sample ``samples`` independent walks and collect branch counts.

    Sampling is embarrassingly parallel: sample s always uses stream s of
    the seed, and workers write disjoint slices, so the result does not
    depend on ``workers`` at all (it only affects speed).  The samples are
    split into at most ``workers`` and at most ``os.cpu_count()`` chunks,
    one thread each.
    """
    from ._kernels import get_kernel

    require_nb_irreducible(g)
    if not 0 <= length < 2**63:
        raise ValueError("length must be non-negative and below 2**63")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    out_flat, dart_table, value_index, degrees = _walk_tables(g)
    counts = np.zeros((samples, len(degrees)), dtype=np.int64)
    end_darts = np.zeros(samples, dtype=np.int32)
    name, kernel = get_kernel(engine)

    bounds = np.linspace(0, samples, min(workers, os.cpu_count() or 1, samples) + 1, dtype=np.int64)
    chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    seed_word = seed & _rng.MASK64

    def run_chunk(lo: int, hi: int) -> None:
        kernel(seed_word, lo, length, out_flat, dart_table, value_index,
               counts[lo:hi], end_darts[lo:hi])

    if len(chunks) == 1:
        run_chunk(*chunks[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(lambda c: run_chunk(*c), chunks))
    return WalkBatch(g, length, seed, degrees, counts, end_darts, engine=name)


def estimate_bit_stats(
    g: Graph, length: int, samples: int, seed: int, workers: int = 1, engine: str | None = None
) -> BitStats:
    """Unbiased mean/variance of total bit consumption over sampled walks."""
    if samples < 2:
        raise PreconditionError("variance estimation needs samples >= 2")
    return run_walks(g, length, samples, seed, workers=workers, engine=engine).bit_stats()


# --- exact distribution -------------------------------------------------------


@dataclass(frozen=True)
class ExactBitDistribution:
    """Exact law of the branch-count vector of a length-l stationary walk.

    ``probabilities`` maps each reachable count vector (one entry per
    tracked degree) to its exact probability.  Bit values follow as
    ``sum(count * log2(degree))``.
    """

    length: int
    degrees: tuple[int, ...]
    probabilities: dict[tuple[int, ...], Fraction]

    def _expectation(self, value) -> Fraction:
        """Exact E[value(counts)], summed in integers over one common denominator."""
        den = math.lcm(*(p.denominator for p in self.probabilities.values()))
        return Fraction(sum(p.numerator * (den // p.denominator) * value(c) for c, p in self.probabilities.items()), den)

    def expected_counts(self) -> tuple[Fraction, ...]:
        """Exact expectation of each tracked degree's count."""
        return tuple(self._expectation(lambda c: c[i]) for i in range(len(self.degrees)))

    def mean_bits(self) -> float:
        return sum(float(t) * math.log2(v) for t, v in zip(self.expected_counts(), self.degrees))

    def variance_bits(self) -> float:
        """Variance of the bit total, from exact count moments."""
        k = len(self.degrees)
        first = self.expected_counts()
        logs = [math.log2(v) for v in self.degrees]
        var = 0.0
        for i in range(k):
            for j in range(k):
                second = self._expectation(lambda c: c[i] * c[j])
                var += logs[i] * logs[j] * float(second - first[i] * first[j])
        return var

    def total_variation(self, histogram: dict[tuple[int, ...], int], samples: int) -> float:
        """Exact TV distance to an empirical count-vector histogram."""
        keys = set(self.probabilities) | set(histogram)
        tv = Fraction(0)
        for key in keys:
            empirical = Fraction(histogram.get(key, 0), samples)
            tv += abs(empirical - self.probabilities.get(key, Fraction(0)))
        return float(tv / 2)


def _sum_of_maps(maps) -> dict[int, int]:
    total: dict[int, int] = {}
    for m in maps:
        for key, c in m.items():
            total[key] = total.get(key, 0) + c
    return total


def exact_bit_distribution(g: Graph, length: int) -> ExactBitDistribution:
    """Exact distribution of the branch-count vector by dynamic programming.

    Each dart maps the count vectors of the walks that end at it, keyed
    ``sum(c_i * (length + 1)**i)``, to their number; a step sums the maps
    of each dart's predecessors and adds one degree's place value to every
    key.  Only reachable vectors are stored: a few per dart when the rates
    are equal, up to O(length**k) for k tracked degrees otherwise.
    Supports at most two distinct branching degrees; raises
    :class:`CapabilityError` beyond that.
    """
    require_nb_irreducible(g)
    if length < 0:
        raise ValueError("length must be non-negative")
    degrees = tracked_degrees(g)
    k = len(degrees)
    if k > 2:
        raise CapabilityError(
            f"exact distribution supports at most 2 distinct branching degrees, graph has {k}: {degrees}"
        )

    n = g.dart_count
    radix = length + 1  # no count exceeds length, so the key sum(c_i * radix**i) is one-to-one
    step = {d: radix**i for i, d in enumerate(degrees)}

    # the predecessors of f are the darts entering tail(f) except reverse(f),
    # and each of them branches deg(tail f) - 1 ways; where tail(f) has degree
    # two that leaves one predecessor, which does not branch, so f takes its
    # map as it is
    successor = g.chain_successor
    chain = np.flatnonzero(successor >= 0)
    predecessor = np.full(n, -1, dtype=np.int64)
    predecessor[successor[chain]] = chain
    predecessor, reverse = predecessor.tolist(), g.dart_reverse.tolist()
    branching = [
        (step[degree - 1], [(f, reverse[f]) for f in g.out_darts(v)])
        for v, degree in enumerate(g.degrees.tolist())
        if degree > 2
    ]

    maps = [{0: 1}] * n  # per dart: count-vector key -> walks ending there; shared, never changed
    for _ in range(length):
        before, maps = maps, list(map(maps.__getitem__, predecessor))  # branching darts are set below
        for s, darts in branching:
            insum = _sum_of_maps(before[r] for _, r in darts)
            for f, r in darts:
                m = before[r]
                maps[f] = {key + s: left for key, c in insum.items() if (left := c - m.get(key, 0))}

    probabilities: dict[tuple[int, ...], Fraction] = {}
    for key, walks in _sum_of_maps(maps).items():
        counts = []
        for _ in degrees:
            key, c = divmod(key, radix)
            counts.append(c)
        probabilities[tuple(counts)] = Fraction(walks, n * math.prod(d**c for d, c in zip(degrees, counts)))
    if sum(probabilities.values()) != 1:
        raise RuntimeError("exact distribution does not sum to one")
    probabilities = dict(sorted(probabilities.items()))  # the CSV merges equal bit values in this order
    return ExactBitDistribution(length=length, degrees=degrees, probabilities=probabilities)


# --- CSV ----------------------------------------------------------------------


def _bits_csv(degrees, length, entries) -> str:
    """CSV ``bits_per_step,probability`` of (counts, weight) pairs, merging
    the pairs whose bit values coincide.

    Distinct count vectors can consume exactly the same number of bits
    (e.g. degrees 2 and 4: two 2-branches equal one 4-branch), so rows are
    keyed by the exact integer prod(degree**count); its log2 is the bit
    value, computed exactly even for huge products.
    """
    merged: dict[int, float] = {}
    for counts, weight in entries:
        key = 1
        for v, c in zip(degrees, counts):
            key *= v**c
        merged[key] = merged.get(key, 0.0) + weight
    scale = length if length else 1
    lines = ["bits_per_step,probability"]
    for bits, p in sorted((math.log2(key), weight) for key, weight in merged.items()):
        lines.append(f"{bits / scale:.12g},{p:.12g}")
    return "\n".join(lines) + "\n"


def distribution_csv(dist: ExactBitDistribution) -> str:
    """CSV of the exact distribution: bits_per_step,probability."""
    return _bits_csv(dist.degrees, dist.length, [(c, float(p)) for c, p in dist.probabilities.items()])


def histogram_csv(batch: WalkBatch) -> str:
    """CSV of the empirical bit distribution: bits_per_step,probability."""
    n = batch.sample_count
    return _bits_csv(batch.degrees, batch.length, [(c, k / n) for c, k in batch.histogram().items()])
