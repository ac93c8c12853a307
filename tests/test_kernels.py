import hashlib
import os
import random
import sys
import threading
from array import array
from collections import Counter

import numpy as np
import pytest

from nbrw import build_graph, is_nb_irreducible, k4_minus_edge, run_walks, walks, wheel_graph
from nbrw import _kernels as kernels
from nbrw._kernels import available_engines, get_kernel
from nbrw._text import EdgeList
from nbrw.graph import HALF_LOOP, WHOLE_LOOP

from _corpus import graphs_with_loops, pairing_graph, random_nb_irreducible, scalar_walk_counts
from _reference_rng import MASK64, draw, mix64, stream_key
from _reference_walks import sample_walk


def test_mix64_reference_values():
    # splitmix64 finalizer fixed points and chain, computed independently
    assert mix64(0) == 0
    x = mix64(0x9E3779B97F4A7C15)
    assert 0 < x <= MASK64
    assert mix64(x) != x


def test_draw_is_pure_function():
    key = stream_key(123, 7)
    assert draw(key, 5) == draw(key, 5)
    assert draw(key, 5) != draw(key, 6)
    assert stream_key(123, 7) != stream_key(123, 8)
    assert stream_key(123, 7) != stream_key(124, 7)


def test_kernel_selection(monkeypatch):
    name, _ = get_kernel("python")
    assert name == "python"
    monkeypatch.setenv("NBRW_PURE_PYTHON", "1")
    name, _ = get_kernel(None)
    assert name == "python"
    for bogus in ("bogus", "auto"):  # None is the default
        with pytest.raises(ValueError):
            get_kernel(bogus)


def test_engines_agree_on_corpus():
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    rng = random.Random(2121)
    for _ in range(5):
        g = random_nb_irreducible(rng, max_vertices=8)
        a = run_walks(g, 37, 500, seed=rng.randrange(2**60), engine="compiled")
        b = run_walks(g, 37, 500, seed=a.seed, engine="python")
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.end_darts, b.end_darts)
    # walks that end inside a suspended path, in a chunk of 7 samples from sample 5
    for g in [wheel_graph(5, 3, 12), *graphs_with_loops(rng)]:
        out_flat, dart_table, value_index, degrees = walks._tables(g)
        for length in range(int(g.suspended_paths.length.max()) + 3):
            counts, ends = scalar_walk_counts(g, length, 41, range(5, 12))
            for engine in ("compiled", "python"):
                got_counts = np.zeros_like(counts)
                got_ends = np.zeros_like(ends)
                get_kernel(engine)[1](41, 5, length, out_flat, dart_table, value_index, got_counts, got_ends)
                assert np.array_equal(got_counts, counts), (g, length, engine)
                assert np.array_equal(got_ends, ends), (g, length, engine)


def test_compiled_kernel_rejects_bad_buffers(k4e):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    _, kernel = get_kernel("compiled")
    out_flat, dart_table, value_index, degrees = map(np.asarray, walks._tables(k4e))
    counts = np.zeros((4, len(degrees)), dtype=np.int64)
    end = np.zeros(4, dtype=np.int32)
    kernel(1, 0, 5, out_flat, dart_table, value_index, counts, end)  # the tables run_walks passes

    def altered(row, dart, value):
        table = dart_table.copy()
        table[row, dart] = value
        return table

    path_dart = int(np.flatnonzero(dart_table[4] > 0)[0])
    anchor = int(dart_table[3, path_dart])
    other_anchor = int(np.flatnonzero((dart_table[4] == 0) & (np.arange(k4e.dart_count) != anchor))[0])
    bad_tables = [
        altered(1, 3, dart_table[0, 3] + dart_table[2, 3] + 1),  # skip past the darts leaving head(3)
        altered(3, path_dart, -1),
        altered(3, path_dart, k4e.dart_count),
        altered(3, path_dart, other_anchor),  # its successor has another anchor
        altered(4, path_dart, 0),  # outdeg 1 but no distance
        altered(4, path_dart, -1),
        altered(4, path_dart, dart_table[4, path_dart] + 1),  # not one more than its successor's
        altered(4, anchor, 1),  # a branching dart with a distance
    ]
    counted_path_dart = value_index.copy()
    counted_path_dart[path_dart] = 0
    for args in (
        (out_flat.astype(np.int32), dart_table, value_index, counts, end),
        (out_flat, dart_table[:, :-1], value_index, counts, end),
        (out_flat, np.asfortranarray(dart_table), value_index, counts, end),
        (out_flat, dart_table, value_index[:-1], counts, end),
        (out_flat, dart_table, value_index, counts, end[:-1]),
        (out_flat, dart_table, counted_path_dart, counts, end),
        *((out_flat, table, value_index, counts, end) for table in bad_tables),
    ):
        with pytest.raises(ValueError):
            kernel(1, 0, 5, *args)


def _as_array(a, code):
    """``a``'s values in an array.array, or a memoryview of ``a``'s shape over one."""
    flat = array(code, a.ravel().tolist())
    return flat if a.ndim == 1 else memoryview(flat).cast("B").cast(code, a.shape)


def test_compiled_kernel_reads_any_buffer(k4e):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    _, kernel = get_kernel("compiled")
    out_flat, dart_table, value_index, degrees = map(np.asarray, walks._tables(k4e))
    counts, ends = scalar_walk_counts(k4e, 17, 3, range(2, 8))
    for convert in (lambda a, code: a, _as_array, lambda a, code: memoryview(bytearray(a.tobytes())).cast(code, a.shape)):
        got_counts, got_ends = convert(np.zeros_like(counts), "q"), convert(np.zeros_like(ends), "i")
        kernel(3, 2, 17, convert(out_flat, "q"), convert(dart_table, "q"), convert(value_index, "i"),
               got_counts, got_ends)
        assert np.asarray(got_counts).tolist() == counts.tolist()
        assert np.asarray(got_ends).tolist() == ends.tolist()
    read_only = memoryview(bytes(counts.nbytes)).cast("q", counts.shape)
    with pytest.raises(ValueError, match="out_counts"):
        kernel(3, 2, 17, out_flat, dart_table, value_index, read_only, np.zeros_like(ends))


def _hub_graph():
    # a cycle through 137 vertices, vertex i topped up with loops to degree
    # 3 + i: outdegs 2..138 give 137 tracked degrees, more than int8 indexes
    edges = [(i, (i + 1) % 137) for i in range(137)]
    for i in range(137):
        edges += [(i, i, WHOLE_LOOP)] * ((i + 1) // 2) + [(i, i, HALF_LOOP)] * ((i + 1) % 2)
    return build_graph(137, edges)


def test_the_two_table_builders_agree():
    # the C builder and its numpy twin give the same verdict, the one that
    # is_nb_irreducible gives, and the same bytes, on every graph: laid out
    # whatever the verdict, with anchor = dist = -1 on a cycle component
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    from nbrw._kernels import _walk, fallback

    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    named = {
        "no vertex": build_graph(0, []),
        "isolated vertex": build_graph(5, k4),
        "leaf": build_graph(5, k4 + [(3, 4)]),
        "half-loop on a vertex of degree 1": build_graph(1, [(0, 0, HALF_LOOP)]),
        "triangle beside a K4": build_graph(7, k4 + [(4, 5), (5, 6), (6, 4)]),
        "vertex whose only edge is a whole-loop": build_graph(5, k4 + [(4, 4, WHOLE_LOOP)]),
    }
    rng = random.Random(4242)
    corpus = [*named.values(), build_graph(1, []), build_graph(1, [(0, 0, WHOLE_LOOP)]),
              build_graph(1, [(0, 0, WHOLE_LOOP)] * 2), build_graph(1, [(0, 0, HALF_LOOP)] * 3),
              build_graph(3, [(0, 1)]), _hub_graph()]
    for _ in range(500):
        lo, hi = rng.choice([(1, 5), (2, 2), (2, 5), (3, 4)])
        corpus.append(pairing_graph(rng, [rng.randint(lo, hi) for _ in range(rng.randint(2, 9))], half_loop_prob=0.3))
    verdicts = Counter()
    for g in corpus:
        paired = 2 * sum(kind != HALF_LOOP for *_, kind in g.edges)
        verdict, *tables = _walk.walk_tables(g.vertex_count, paired, array("q", g.dart_tail.tolist()))
        twin_verdict, *twin_tables = fallback.walk_tables(g.vertex_count, paired, g.dart_tail)
        assert verdict == twin_verdict == is_nb_irreducible(g).value, g
        assert [bytes(t) for t in tables] == [bytes(memoryview(t)) for t in twin_tables], g
        verdicts[verdict] += 1
        edge_list = EdgeList(g.vertex_count, list(g.edges))  # what the CLI parses
        if verdict != "ok":
            with pytest.raises(walks.PreconditionError, match=f"got {verdict}$"):
                walks._tables(edge_list)
        else:
            assert [bytes(t) for t in walks._tables(edge_list)[:3]] == [bytes(t) for t in tables[:3]], g
    assert min(verdicts.values()) >= 5 and len(verdicts) == 4, verdicts
    cyclic = named["triangle beside a K4"]
    anchor_and_dist = np.frombuffer(_walk.walk_tables(7, 18, cyclic.dart_tail)[2], np.int64).reshape(5, -1)[3:]
    assert (anchor_and_dist[:, :12] >= 0).all() and (anchor_and_dist[:, 12:] == -1).all()  # the K4's, the triangle's
    for tails, paired in (([0, 1, 2], 4), ([0, 1], 1), ([0, 3], 2), ([0, -1], 2)):
        for builder in (_walk.walk_tables, fallback.walk_tables):
            with pytest.raises(ValueError, match="tails"):
                builder(3, paired, array("q", tails))


def test_walks_count_more_than_127_branching_degrees():
    g = _hub_graph()
    assert walks.tracked_degrees(g) == tuple(range(2, 139))
    counts, ends = scalar_walk_counts(g, 10, 3, range(100))
    for engine in available_engines():
        batch = run_walks(g, 10, 100, seed=3, workers=2, engine=engine)
        assert np.array_equal(batch.counts, counts), engine
        assert np.array_equal(batch.end_darts, ends), engine


def test_chunking_never_depends_on_worker_count(k4e):
    reference = run_walks(k4e, 29, 997, seed=31, workers=1)
    for workers in (2, 3, 7, 997, 2000):
        other = run_walks(k4e, 29, 997, seed=31, workers=workers)
        assert np.array_equal(reference.counts, other.counts)
        assert np.array_equal(reference.end_darts, other.end_darts)


def test_thread_pool_capped_at_cpu_count(k4e, monkeypatch):
    # a recording stand-in runs each chunk when it is joined, on this
    # thread, so no thread starts; the pinning each thread does first is
    # recorded instead of done, as it would pin the caller's thread
    started, pinned = [], []

    class RecordingThread:
        def __init__(self, target, args):
            self.run = lambda: target(*args)

        def start(self):
            started.append(self)

        def join(self):
            self.run()

    monkeypatch.setattr(threading, "Thread", RecordingThread)  # run_walks looks it up when it runs
    monkeypatch.setattr(walks.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(walks.os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus))
    reference = run_walks(k4e, 29, 997, seed=31, workers=1)
    capped = run_walks(k4e, 29, 997, seed=31, workers=2000)
    assert len(started) == 3  # at most one thread per CPU, not one per requested worker
    assert sorted(pinned) == [[0], [1], [2]]  # one chunk per thread, each on a CPU of its own
    assert np.array_equal(reference.counts, capped.counts)
    assert np.array_equal(reference.end_darts, capped.end_darts)


def test_pool_threads_each_pinned_to_their_own_cpu(k4e, monkeypatch):
    caller_cpus = os.sched_getaffinity(0)
    if len(caller_cpus) < 2:
        pytest.skip("needs two CPUs to pin two threads apart")
    name, kernel = get_kernel()
    seen = {}

    def recording(*args):
        seen.setdefault(threading.get_ident(), []).append(os.sched_getaffinity(0))
        return kernel(*args)

    monkeypatch.setattr(kernels, "get_kernel", lambda engine=None: (name, recording))
    reference = run_walks(k4e, 200, 4000, seed=7, workers=1)
    seen.clear()
    pinned = run_walks(k4e, 200, 4000, seed=7, workers=len(caller_cpus))
    assert threading.get_ident() not in seen  # the chunks ran on pool threads
    cpus = [affinity for calls in seen.values() for affinity in set(map(frozenset, calls))]
    assert all(len(affinity) == 1 for affinity in cpus)
    assert len(set(cpus)) == len(cpus) == len(seen)  # one CPU per thread, no two threads share one
    assert set().union(*cpus) <= caller_cpus
    assert os.sched_getaffinity(0) == caller_cpus  # the caller stays unpinned
    assert np.array_equal(reference.counts, pinned.counts)
    assert np.array_equal(reference.end_darts, pinned.end_darts)


def test_chunk_threads_are_alive_at_once(k4e, monkeypatch):
    # short chunks on a short switch interval: a thread that finished before
    # the next one started would hand it its ident, and two chunks would
    # read as one thread on two CPUs
    caller_cpus = os.sched_getaffinity(0)
    if len(caller_cpus) < 2:
        pytest.skip("needs two CPUs to run two chunks")
    name, kernel = get_kernel()
    seen = {}

    def recording(*args):
        seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
        return kernel(*args)

    monkeypatch.setattr(kernels, "get_kernel", lambda engine=None: (name, recording))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(50):
            seen.clear()
            run_walks(k4e, 5, 40, seed=seed, workers=2 * len(caller_cpus))
            assert len(seen) == len(caller_cpus), seed
            assert all(len(cpus) == 1 for cpus in seen.values()), seed
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_thread_raises_in_the_caller(k4e, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs to run two chunks")
    name, kernel = get_kernel()

    def failing(seed, lo, *args):
        if lo > 0:  # every chunk but the first
            raise MemoryError("chunk failed")
        return kernel(seed, lo, *args)

    monkeypatch.setattr(kernels, "get_kernel", lambda engine=None: (name, failing))
    with pytest.raises(MemoryError, match="chunk failed"):
        run_walks(k4e, 10, 100, seed=0, workers=2)


# Walk streams recorded from the per-arc successor table the kernels used to
# read: sample_walk(g, 24, seed=5, stream=3).darts, and the first 16 hex
# digits of sha256(counts || end_darts) of run_walks(g, 60, 700, seed=2024).
PINNED_STREAMS = {
    "k4e": (
        k4_minus_edge,
        (8, 1, 2, 4, 1, 6, 8, 5, 3, 6, 8, 1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4, 9, 7),
        "7963957ee219fcfc",
    ),
    "half_loop_barbell": (
        lambda: build_graph(2, [(0, 1), (0, 1), (0, 0, HALF_LOOP), (1, 1, HALF_LOOP)]),
        (2, 1, 2, 1, 2, 5, 3, 4, 0, 5, 1, 2, 1, 2, 1, 2, 1, 2, 1, 4, 0, 3, 4, 2, 5),
        "48045816082ce8d7",
    ),
    "whole_loop_and_parallel_edges": (
        lambda: build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2, WHOLE_LOOP)]),
        (8, 8, 8, 6, 0, 4, 6, 2, 1, 7, 5, 1, 2, 1, 2, 1, 2, 1, 2, 4, 9, 9, 5, 3, 7),
        "240d6f20927a9b92",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_walk_stream_is_pinned(name):
    build, darts, digest = PINNED_STREAMS[name]
    g = build()
    assert sample_walk(g, 24, seed=5, stream=3).darts == darts
    for engine in available_engines():
        batch = run_walks(g, 60, 700, seed=2024, workers=3, engine=engine)
        assert batch.counts.dtype == np.int64 and batch.end_darts.dtype == np.int32
        got = hashlib.sha256(batch.counts.tobytes() + batch.end_darts.tobytes()).hexdigest()[:16]
        assert got == digest, engine
