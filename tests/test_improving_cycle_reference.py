"""The integer-row improving-cycle search against the one it replaced
(``_reference_improving_cycle``): the identical dart list wherever that
search ends by peeling, and the same exact mean wherever it falls back to
a maximum-mean cycle.  On two seeded corpora and on hk6 and w65-3-8,
through int64 rows and through the Python-int fallback."""

import random
from functools import lru_cache

import pytest

import _reference_improving_cycle as reference
from nbrw import (
    conditions,
    equal_growth_wheel,
    find_improving_cycle,
    path_growth_function,
    wheel_graph,
)

from _corpus import random_nb_irreducible, random_path_function


@lru_cache(maxsize=None)
def cases():
    """(name, graph, f, reference cycle, whether the reference fell back)."""
    graphs = []
    rng = random.Random(1313)
    for i in range(40):
        g = random_nb_irreducible(rng, max_vertices=8)
        graphs.append((f"growth-{i}", g, path_growth_function(g)))
    rng = random.Random(2424)
    for i in range(25):
        g = random_nb_irreducible(rng, max_vertices=8)
        graphs.append((f"random-{i}", g, random_path_function(rng, g)))
    for name, g in (("hk6", equal_growth_wheel(6)), ("w65-3-8", wheel_graph(65, 3, 8))):
        graphs.append((name, g, path_growth_function(g)))

    fallback = reference._max_mean_cycle
    out = []
    for name, g, f in graphs:
        calls = []
        reference._max_mean_cycle = lambda *args: calls.append(1) or fallback(*args)
        try:
            cycle = reference.find_improving_cycle(g, f)
        finally:
            reference._max_mean_cycle = fallback
        out.append((name, g, f, cycle, bool(calls)))
    return out


@pytest.mark.parametrize("bound", [conditions._INT64_BOUND, 0], ids=["int64", "python-int"])
def test_improving_cycle_matches_reference(bound, monkeypatch):
    monkeypatch.setattr(conditions, "_INT64_BOUND", bound)
    fallbacks = 0
    for name, g, f, expected, fell_back in cases():
        cycle = find_improving_cycle(g, f)
        if fell_back:
            fallbacks += 1
            assert reference.geometric_mean([f[d] for d in cycle]) == reference.geometric_mean([f[d] for d in expected]), name
        else:
            assert cycle == expected, name
    assert 0 < fallbacks < len(cases())  # both endings are compared
