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
per dart at any length.  The sampler and the exact law read one set of
dart tables (:func:`_tables`), which :func:`nbrw._kernels.walk_tables`
builds from the edge list or a ``Graph`` holds: in C, without numpy, when
the compiled kernel is built, else with its numpy twin.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from ._text import (CapabilityError, EdgeList, IrreducibilityVerdict, PreconditionError, cannot_connect, number_darts,
                    require_irreducible)

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .graph import Graph


def tracked_degrees(g: Graph) -> tuple[int, ...]:
    """Distinct branching degrees (outdeg > 1), ascending."""
    return tuple(sorted({d - 1 for d in g.degrees.tolist() if d > 2}))  # every vertex of degree > 2 is a head


class BitStats(NamedTuple):
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
    """Result of a batch run: per-sample branch-count vectors and end darts,
    as numpy views made on each read.  All statistics derive from the exact
    histogram of the count vectors, so they are identical for any worker
    count or engine.
    """

    def __init__(self, dart_count: int, length: int, seed: int, degrees: tuple[int, ...],
                 counts, end_darts, engine: str):
        self.dart_count = dart_count
        self.length = length
        self.seed = seed
        self.degrees = degrees
        self.engine = engine
        self._counts, self._end_darts = counts, end_darts

    @property
    def counts(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self._counts)

    @property
    def end_darts(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self._end_darts)

    @property
    def sample_count(self) -> int:
        return len(self._counts)

    @cached_property
    def _histogram(self) -> dict[tuple[int, ...], int]:
        flat = memoryview(self._counts).cast("B").cast("q").tolist()
        return dict(sorted(Counter(zip(*[iter(flat)] * len(self.degrees))).items()))  # a row per sample

    def bit_stats(self) -> BitStats:
        n = self.sample_count
        if n < 2:
            raise PreconditionError("variance needs at least 2 samples")
        logs = [math.log2(v) for v in self.degrees]
        rows = self._histogram.items()
        s1 = [sum(c[a] * k for c, k in rows) for a in range(len(logs))]
        total_bits = sum(l * s for l, s in zip(logs, s1))
        variance = 0.0
        for a, la in enumerate(logs):
            for b, lb in enumerate(logs):
                central = n * sum(c[a] * c[b] * k for c, k in rows) - s1[a] * s1[b]
                variance += la * lb * (central / n)  # int / int rounds correctly
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
        return dict(self._histogram)

    def end_dart_counts(self) -> np.ndarray:
        import numpy as np

        return np.bincount(self.end_darts, minlength=self.dart_count)


def _tables(g: Graph | EdgeList) -> tuple[memoryview, memoryview, memoryview, tuple[int, ...]]:
    """The tables of :func:`nbrw._kernels.walk_tables` that the sampler and
    the exact law read, as read-only buffers: ``out_flat``, ``dart_table``
    with shape (5, D), ``value_index`` and the tracked degrees.  A
    ``Graph``'s own, or built from an ``EdgeList`` once its sizes have
    passed the size test.  Raises :class:`PreconditionError` unless the
    graph is NB-irreducible."""
    if isinstance(g, EdgeList):
        if cannot_connect(g.vertex_count, len(g.edges)):  # refused before anything per vertex is built
            require_irreducible(IrreducibilityVerdict.NOT_CONNECTED)
        from array import array

        from ._kernels import walk_tables

        tail, paired = number_darts(g.edges)
        verdict, *tables = walk_tables(g.vertex_count, paired, array("q", tail))
    else:
        require_irreducible(g.irreducibility)
        verdict, *tables = g._layout
    require_irreducible(verdict)
    out_flat, dart_table, value_index, degrees = (memoryview(table).cast("B") for table in tables)
    return (out_flat.cast("q"), dart_table.cast("q", (5, len(out_flat) // 8)), value_index.cast("i"),
            tuple(degrees.cast("q")))


def run_walks(
    g: Graph | EdgeList,
    length: int,
    samples: int,
    seed: int,
    workers: int = 1,
    engine: str | None = None,
) -> WalkBatch:
    """Sample ``samples`` independent walks and collect branch counts.

    ``g`` is a ``Graph`` or a parsed :class:`~nbrw._text.EdgeList`.
    Sampling is embarrassingly parallel: sample s always uses stream s of
    the seed, and workers write disjoint slices, so the result does not
    depend on ``workers`` at all (it only affects speed).  The samples are
    split into at most ``workers`` chunks and at most one per CPU that the
    process may run on (``os.sched_getaffinity``), one thread each, and
    each thread is pinned to a CPU of its own.
    """
    from ._kernels import get_kernel

    name, kernel = get_kernel(engine)
    out_flat, dart_table, value_index, degrees = _tables(g)
    if not 0 <= length < 2**63:
        raise ValueError("length must be non-negative and below 2**63")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    try:
        counts = memoryview(bytearray(8 * samples * len(degrees))).cast("q", (samples, len(degrees)))
        end_darts = memoryview(bytearray(4 * samples)).cast("i")
    except OverflowError:  # more bytes than an address space has
        raise MemoryError from None

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else list(range(os.cpu_count() or 1))
    parts = min(workers, len(cpus), samples)
    bounds = [samples * i // parts for i in range(parts + 1)]
    chunks = list(zip(bounds, bounds[1:]))  # none empty, as parts <= samples

    seed_word = seed & 0xFFFFFFFFFFFFFFFF

    def run_chunk(lo: int, hi: int) -> None:
        kernel(seed_word, lo, length, out_flat, dart_table, value_index,
               counts[lo:hi], end_darts[lo:hi])

    if len(chunks) == 1:
        run_chunk(*chunks[0])
    else:
        failures: list[BaseException] = []
        # no thread starts its chunk before all have started, so all are alive
        # at once and none takes over the ident of one that has finished
        all_started = threading.Event()

        def run_pinned(lo: int, hi: int) -> None:
            # a fresh process's threads can all stay on the CPU they started
            # on, so each takes one (list.pop is atomic), or runs unpinned
            try:
                os.sched_setaffinity(0, [cpus.pop()])
            except (AttributeError, OSError):
                pass
            all_started.wait()
            try:
                run_chunk(lo, hi)
            except BaseException as exc:  # raised again in the caller
                failures.append(exc)

        threads = [threading.Thread(target=run_pinned, args=chunk) for chunk in chunks]
        try:
            for thread in threads:
                thread.start()
        finally:
            all_started.set()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
    return WalkBatch(len(out_flat), length, seed, degrees, counts, end_darts, engine=name)


# --- exact distribution -------------------------------------------------------


class ExactBitDistribution(NamedTuple):
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
        from fractions import Fraction

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


def _sum_of_maps(maps) -> dict[int, int]:
    total: dict[int, int] = {}
    for m in maps:
        for key, c in m.items():
            total[key] = total.get(key, 0) + c
    return total


def exact_bit_distribution(g: Graph | EdgeList, length: int) -> ExactBitDistribution:
    """Exact distribution of the branch-count vector by dynamic programming.

    ``g`` may be a ``Graph`` or a parsed :class:`~nbrw._text.EdgeList`; the
    DP reads the walk tables that the sampler reads.  Each dart maps the
    count vectors of the walks that end at it, keyed
    ``sum(c_i * (length + 1)**i)``, to their number; a step sums the maps
    of each dart's predecessors and adds one degree's place value to every
    key.  Only reachable vectors are stored: a few per dart when the rates
    are equal, up to O(length**k) for k tracked degrees otherwise.
    Supports at most two distinct branching degrees; raises
    :class:`CapabilityError` beyond that.
    """
    from fractions import Fraction

    out_flat, dart_table, _, degrees = _tables(g)
    if length < 0:
        raise ValueError("length must be non-negative")
    if len(degrees) > 2:
        raise CapabilityError("exact distribution supports at most 2 distinct branching degrees, "
                              f"graph has {len(degrees)}: {degrees}")

    out = out_flat.tolist()
    n = len(out)
    rows = memoryview(dart_table).cast("B").cast("q")  # the rows one after another, read in place
    first, skip, outdeg = (rows[i * n : (i + 1) * n] for i in range(3))
    radix = length + 1  # no count exceeds length, so the key sum(c_i * radix**i) is one-to-one
    step = {d: radix**i for i, d in enumerate(degrees)}

    # the predecessors of f are the darts entering tail(f) except reverse(f),
    # and each of them branches outdeg ways.  A dart with outdeg 1 is the one
    # predecessor of its one successor, which takes its map as it is.  The
    # darts leaving a branching vertex are out[k : k + d + 1], with k = first[b]
    # and d = outdeg[b] for any dart b entering it; reverse(f) is out[skip[f]]
    predecessor = [0] * n  # darts leaving a branching vertex are set below
    groups = {}
    for e, (k, at_reverse, d) in enumerate(zip(first, skip, outdeg)):
        if d == 1:
            predecessor[out[k + (k >= at_reverse)]] = e
        else:
            groups[k] = d
    branching = [(step[d], [(f, out[skip[f]]) for f in out[k : k + d + 1]]) for k, d in groups.items()]

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
