"""The integer-exponent criteria against the ExactValue criteria they
replaced (``_reference_criteria``): identical lambda, verdicts, path and
cycle witnesses and potentials, on a corpus of random multigraphs and the
named graphs."""

import random

import numpy as np

import _reference_criteria as reference
from nbrw import (
    average_growth_rate,
    check_cycle_condition,
    check_suspended_path_condition,
    complete_bipartite_graph,
    complete_graph,
    equal_growth_wheel,
    k4_minus_edge,
    subdivide,
    suspended_path_decomposition,
    wheel_graph,
)
from nbrw.graph import HALF_LOOP, NORMAL, WHOLE_LOOP

from _corpus import random_nb_irreducible, random_regular


def corpus():
    rng = random.Random(4242)
    graphs = [random_nb_irreducible(rng) for _ in range(260)]
    graphs += [random_regular(rng, degree=rng.choice([3, 4, 5])) for _ in range(20)]
    # subdivided regular graphs are equal, with potentials that vary
    graphs += [subdivide(random_regular(rng), rng.choice([2, 3])) for _ in range(20)]
    graphs += [
        equal_growth_wheel(4),
        equal_growth_wheel(5),
        complete_graph(5),
        wheel_graph(5, 2, 3),
        subdivide(complete_bipartite_graph(2, 3), 3),
        complete_bipartite_graph(3, 4),
        k4_minus_edge(),
    ]
    return graphs


def _shapes(graphs):
    kinds = {kind for g in graphs for _, _, kind in g.edges}
    parallel = any(
        len({tuple(sorted(e[:2])) for e in g.edges}) < len(g.edges) for g in graphs
    )
    return kinds, parallel


def _same_criteria(g):
    assert average_growth_rate(g) == reference.average_growth_rate(g)
    ref_paths = reference.suspended_path_decomposition(g)
    paths = suspended_path_decomposition(g)
    assert [(p.darts, p.in_degree, p.out_degree, p.g_value) for p in paths] == [
        (p.darts, p.in_degree, p.out_degree, p.g_value) for p in ref_paths
    ]
    # to_json carries holds, lambda, the witness darts and the potential pairs
    assert check_suspended_path_condition(g).to_json() == reference.check_suspended_path_condition(g).to_json()
    cycle_verdict, ref_cycle_verdict = check_cycle_condition(g), reference.check_cycle_condition(g)
    assert cycle_verdict.to_json() == ref_cycle_verdict.to_json()
    assert reference.potential(cycle_verdict) == ref_cycle_verdict.potential
    return cycle_verdict


def test_corpus_covers_loops_parallel_edges_and_both_verdicts():
    graphs = corpus()
    kinds, parallel = _shapes(graphs)
    assert len(graphs) >= 300
    assert kinds == {NORMAL, WHOLE_LOOP, HALF_LOOP}
    assert parallel


def test_integer_criteria_match_reference_on_corpus():
    verdicts = [_same_criteria(g) for g in corpus()]
    assert any(not v.holds for v in verdicts)
    assert any(v.holds and len(set(reference.potential(v).values())) > 1 for v in verdicts)


def test_potential_pairs_are_lowest_terms():
    g = equal_growth_wheel(4)
    phi = check_cycle_condition(g).to_json()["witness"]["phi"]
    for pairs in phi.values():
        for _, num, den in pairs:
            assert num != 0 and np.gcd(num, den) == 1
