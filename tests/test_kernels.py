import concurrent.futures
import hashlib
import random

import numpy as np
import pytest

from nbrw import build_graph, k4_minus_edge, run_walks, sample_walk, walks, wheel_graph
from nbrw._kernels import available_engines, get_kernel
from nbrw._rng import MASK64, draw, mix64, stream_key
from nbrw.graph import HALF_LOOP, WHOLE_LOOP

from _corpus import graphs_with_loops, random_nb_irreducible, scalar_walk_counts


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
    with pytest.raises(ValueError):
        get_kernel("bogus")


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
        out_flat, dart_table, value_index, degrees = walks._walk_tables(g)
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
    out_flat, dart_table, value_index, degrees = walks._walk_tables(k4e)
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


def test_walks_count_more_than_127_branching_degrees():
    # a cycle through 137 vertices, vertex i topped up with loops to degree
    # 3 + i: outdegs 2..138 give 137 tracked degrees, more than int8 indexes
    edges = [(i, (i + 1) % 137) for i in range(137)]
    for i in range(137):
        edges += [(i, i, WHOLE_LOOP)] * ((i + 1) // 2) + [(i, i, HALF_LOOP)] * ((i + 1) % 2)
    g = build_graph(137, edges)
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
    # a recording stand-in runs the chunks in turn, so no thread starts
    pool_sizes, chunk_counts = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            chunk_counts.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)  # run_walks imports it when it runs
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 3)
    reference = run_walks(k4e, 29, 997, seed=31, workers=1)
    capped = run_walks(k4e, 29, 997, seed=31, workers=2000)
    assert pool_sizes == [3]
    assert chunk_counts == [3]  # at most one chunk per thread, not one per requested worker
    assert np.array_equal(reference.counts, capped.counts)
    assert np.array_equal(reference.end_darts, capped.end_darts)


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
