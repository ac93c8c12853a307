"""The integer-row improving-cycle search against the one it replaced
(``_reference_improving_cycle``), given that search's only ``f``, the path
growth function: the identical dart list wherever that search ends by
peeling, and the same exact mean wherever it falls back to a maximum-mean
cycle.  On a seeded corpus and on hk6 and w65-3-8, through int64 rows and
through the Python-int fallback."""

import random
from functools import lru_cache

import pytest

import _reference_improving_cycle as reference
from nbrw import build_graph, conditions, equal_growth_wheel, find_improving_cycle, wheel_graph

from _corpus import random_nb_irreducible


@lru_cache(maxsize=None)
def cases():
    """(name, graph, f, reference cycle, whether the reference fell back)."""
    rng = random.Random(1313)
    graphs = [(f"growth-{i}", random_nb_irreducible(rng, max_vertices=8)) for i in range(40)]
    graphs += [("hk6", equal_growth_wheel(6)), ("w65-3-8", wheel_graph(65, 3, 8))]

    fallback = reference._max_mean_cycle
    out = []
    for name, g in graphs:
        f = reference.path_growth_function(g)
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
        g = build_graph(g.vertex_count, list(g.edges))  # nothing cached from another bound
        cycle = find_improving_cycle(g)
        assert (conditions._exponents(g).rows.dtype == object) == (bound == 0), name
        if fell_back:
            fallbacks += 1
            assert reference.geometric_mean([f[d] for d in cycle]) == reference.geometric_mean([f[d] for d in expected]), name
        else:
            assert cycle == expected, name
    assert 0 < fallbacks < len(cases())  # both endings are compared


def test_search_builds_no_exact_value(monkeypatch):
    from nbrw.exact import ExactValue

    graphs = [build_graph(g.vertex_count, list(g.edges)) for _, g, _, _, _ in cases()]
    built = []
    init = ExactValue.__init__
    monkeypatch.setattr(ExactValue, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    for g in graphs:  # both endings, peeling and the maximum-mean fallback
        find_improving_cycle(g)
    assert built == []
