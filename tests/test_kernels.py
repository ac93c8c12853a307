import hashlib
import random

import numpy as np
import pytest

from nbrw import build_graph, k4_minus_edge, run_walks, sample_walk, walks
from nbrw._kernels import available_engines, get_kernel
from nbrw._rng import MASK64, draw, mix64, stream_key
from nbrw.graph import HALF_LOOP, WHOLE_LOOP

from _corpus import random_nb_irreducible


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


def test_compiled_kernel_rejects_bad_buffers(k4e):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    _, kernel = get_kernel("compiled")
    out_flat, dart_table, value_index, degrees = walks._walk_tables(k4e)
    counts = np.zeros((4, len(degrees)), dtype=np.int64)
    end = np.zeros(4, dtype=np.int32)
    kernel(1, 0, 5, out_flat, dart_table, value_index, counts, end)  # the tables run_walks passes
    bad_skip = dart_table.copy()
    bad_skip[1, 3] = bad_skip[0, 3] + bad_skip[2, 3] + 1
    for args in (
        (out_flat.astype(np.int32), dart_table, value_index, counts, end),
        (out_flat, dart_table[:, :-1], value_index, counts, end),
        (out_flat, np.asfortranarray(dart_table), value_index, counts, end),
        (out_flat, dart_table, value_index[:-1], counts, end),
        (out_flat, dart_table, value_index, counts, end[:-1]),
        (out_flat, bad_skip, value_index, counts, end),
    ):
        with pytest.raises(ValueError):
            kernel(1, 0, 5, *args)


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

    monkeypatch.setattr(walks, "ThreadPoolExecutor", RecordingPool)
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
