import random

import numpy as np
import pytest

from nbrw import run_walks, walks
from nbrw._kernels import available_engines, get_kernel
from nbrw._rng import MASK64, draw, mix64, stream_key

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


def test_chunking_never_depends_on_worker_count(k4e):
    reference = run_walks(k4e, 29, 997, seed=31, workers=1)
    for workers in (2, 3, 7, 997, 2000):
        other = run_walks(k4e, 29, 997, seed=31, workers=workers)
        assert np.array_equal(reference.counts, other.counts)
        assert np.array_equal(reference.end_darts, other.end_darts)


def test_thread_pool_capped_at_cpu_count(k4e, monkeypatch):
    # a recording stand-in runs the chunks in turn, so no thread starts
    pool_sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(walks, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(walks.os, "cpu_count", lambda: 3)
    reference = run_walks(k4e, 29, 997, seed=31, workers=1)
    capped = run_walks(k4e, 29, 997, seed=31, workers=2000)
    assert pool_sizes == [3]
    assert np.array_equal(reference.counts, capped.counts)
    assert np.array_equal(reference.end_darts, capped.end_darts)
