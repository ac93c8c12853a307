import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nbrw import (
    CapabilityError,
    ExactValue,
    PreconditionError,
    average_growth_rate,
    build_graph,
    check_cycle_condition,
    check_suspended_path_condition,
    complete_bipartite_graph,
    complete_graph,
    equal_growth_wheel,
    find_improving_cycle,
    growth_verdict,
    k4_minus_edge,
    suspended_path_decomposition,
    wheel_graph,
)
from nbrw.conditions import _Potential

from _corpus import random_nb_irreducible
from _reference_criteria import potential
from _reference_improving_cycle import geometric_mean, path_growth_function
from _reference_walks import dart_transitions


def exact(n, num=1, den=1):
    return ExactValue.from_integer(n) ** Fraction(num, den)


def cycle_is_valid(g, darts):
    for i, e in enumerate(darts):
        assert darts[(i + 1) % len(darts)] in dart_transitions(g, e)


def cycle_balance(g, darts, lam):
    product = ExactValue.one()
    for e in darts:
        product = product * ExactValue.from_integer(g.out_degree(e))
    return product / (lam ** len(darts))


def test_lambda_k4e(k4e):
    lam_exact, lam_float = average_growth_rate(k4e)
    assert lam_exact == exact(2, 3, 5)
    assert abs(lam_float - 2**0.6) <= 1e-14


def test_lambda_regular():
    for n in (4, 5, 7):
        lam_exact, _ = average_growth_rate(complete_graph(n))
        assert lam_exact == ExactValue.from_integer(n - 2)


def test_lambda_biregular_23():
    lam_exact, _ = average_growth_rate(complete_bipartite_graph(2, 3))
    assert lam_exact == exact(2, 1, 2)


def test_decomposition_k4e(k4e):
    paths = suspended_path_decomposition(k4e)
    shapes = Counter((p.length, p.g_value) for p in paths)
    assert shapes[(1, exact(2))] == 2
    assert shapes[(2, exact(2, 1, 2))] == 4
    assert sum(p.length for p in paths) == k4e.dart_count
    assert paths[0].darts == (0,)


def test_decomposition_k4(k4):
    paths = suspended_path_decomposition(k4)
    assert len(paths) == 12
    assert all(p.length == 1 and p.g_value == exact(2) for p in paths)


def test_decomposition_w523(w523):
    paths = suspended_path_decomposition(w523)
    shapes = Counter(p.length for p in paths)
    assert shapes == {2: 10, 3: 10}
    assert all(p.g_value == exact(2, 1, 2) for p in paths)
    spokes = [p for p in paths if p.length == 3]
    assert {(p.in_degree, p.out_degree) for p in spokes} == {(4, 2), (2, 4)}


def test_decomposition_is_partition_on_corpus():
    rng = random.Random(707)
    for _ in range(60):
        g = random_nb_irreducible(rng)
        paths = suspended_path_decomposition(g)
        all_darts = [d for p in paths for d in p.darts]
        assert sorted(all_darts) == list(range(g.dart_count))


def test_reverse_symmetry_on_corpus():
    rng = random.Random(808)
    for _ in range(60):
        g = random_nb_irreducible(rng)
        by_first = {}
        for p in suspended_path_decomposition(g):
            by_first[p.darts[0]] = p
        for p in by_first.values():
            reverse_first = int(g.dart_reverse[p.darts[-1]])
            rev = by_first[reverse_first]
            assert rev.g_value == p.g_value
            assert rev.length == p.length
            assert tuple(int(g.dart_reverse[d]) for d in reversed(rev.darts)) == p.darts


def test_weighted_geometric_mean_of_g_is_lambda_on_corpus():
    rng = random.Random(909)
    for _ in range(60):
        g = random_nb_irreducible(rng)
        lam_exact, _ = average_growth_rate(g)
        product = ExactValue.one()
        for p in suspended_path_decomposition(g):
            product = product * (p.g_value ** Fraction(p.length, g.dart_count))
        assert product == lam_exact


def test_path_condition_k4e(k4e):
    verdict = check_suspended_path_condition(k4e)
    assert not verdict.holds
    assert verdict.witness_path.darts == (0,)
    assert verdict.witness_path.g_value == exact(2)
    assert verdict.witness_path.g_value != verdict.lambda_exact


def test_path_condition_k4_and_w523(k4, w523):
    assert check_suspended_path_condition(k4).holds
    assert check_suspended_path_condition(w523).holds


def test_cycle_condition_k4e(k4e):
    verdict = check_cycle_condition(k4e)
    assert not verdict.holds
    cycle = verdict.witness_cycle
    cycle_is_valid(k4e, cycle)
    assert not cycle_balance(k4e, cycle, verdict.lambda_exact).is_one()


def test_cycle_condition_biregular_holds():
    for a, b in ((2, 3), (3, 4), (2, 5)):
        verdict = check_cycle_condition(complete_bipartite_graph(a, b))
        assert verdict.holds
        assert potential(verdict) is not None


def test_cycle_condition_triangle_free_3regular():
    assert check_cycle_condition(complete_bipartite_graph(3, 3)).holds


def test_potential_certificate_relation(k4):
    verdict = check_cycle_condition(k4)
    assert verdict.holds
    phi = potential(verdict)
    lam = verdict.lambda_exact
    for e in range(k4.dart_count):
        for f in dart_transitions(k4, e):
            # outdeg(e) / lam == phi(e) / phi(f), multiplicatively and exactly
            lhs = ExactValue.from_integer(k4.out_degree(e)) / lam
            assert lhs == phi[e] / phi[f]


def test_checkers_agree_on_corpus():
    rng = random.Random(1111)
    for _ in range(80):
        g = random_nb_irreducible(rng)
        a = check_suspended_path_condition(g)
        b = check_cycle_condition(g)
        assert a.holds == b.holds
        if not b.holds:
            cycle_is_valid(g, b.witness_cycle)
            assert not cycle_balance(g, b.witness_cycle, b.lambda_exact).is_one()


def test_verdict_k4e(k4e):
    v = growth_verdict(k4e)
    assert v.status == "strict"
    assert abs(v.gap - 0.005663) <= 2e-4
    assert not v.path_condition.holds and not v.cycle_condition.holds


def test_verdict_equal_cases(k4, w523):
    for g, lam in ((k4, exact(2)), (w523, exact(2, 1, 2))):
        v = growth_verdict(g)
        assert v.status == "equal"
        assert v.lambda_exact == lam
        assert abs(v.gap) <= 1e-8


def test_verdict_numeric_consistency_on_corpus():
    rng = random.Random(1212)
    for _ in range(40):
        g = random_nb_irreducible(rng)
        v = growth_verdict(g)
        if v.equal:
            assert abs(v.gap) <= 1e-8
        else:
            assert v.gap >= 1e-6


def test_requires_irreducibility():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    for fn in (suspended_path_decomposition, check_suspended_path_condition, check_cycle_condition, growth_verdict):
        with pytest.raises(PreconditionError):
            fn(c5)


def test_verdict_json_shapes(k4e, k4, applications):
    strict = growth_verdict(k4e).to_json()
    strict_applications = len(applications)
    assert strict["verdict"] == "strict"
    assert strict["suspended_path_condition"]["witness"]["type"] == "path"
    assert strict["cycle_condition"]["witness"]["type"] == "cycle"
    assert strict["lambda"]["exact"] == [[2, 3, 5]]
    equal = growth_verdict(k4).to_json()
    assert equal["verdict"] == "equal"
    assert equal["suspended_path_condition"]["witness"] is None
    assert equal["cycle_condition"]["witness"]["type"] == "potential"
    for report in (strict, equal):
        rho = report["rho"]
        assert list(rho) == ["value", "rel_tol", "iterations", "low", "high", "matvecs"]
        assert rho["low"] <= rho["value"] <= rho["high"]
        assert rho["rel_tol"] == 1e-12
    # matvecs: the power steps on B plus the applications of B reduced to the
    # branching darts that chose the start; the potential needs neither
    assert strict["rho"]["matvecs"] == strict_applications > strict["rho"]["iterations"] >= 1
    assert equal["rho"]["matvecs"] == equal["rho"]["iterations"] == 1
    assert len(applications) == strict_applications + 1


def pairs_by_dart(phi):
    """``_Potential.as_pairs`` computed dart by dart with Fractions."""
    return {
        str(d): [[p, *Fraction(x, phi.scale).as_integer_ratio()] for p, x in zip(phi.primes, row) if x]
        for d, row in enumerate(phi.rows.tolist())
    }


def test_potential_pairs_on_certificates_and_on_several_primes():
    rng = random.Random(1313)
    corpus = [random_nb_irreducible(rng) for _ in range(40)]
    certified = [check_cycle_condition(g).phi for g in [*corpus, equal_growth_wheel(8), complete_bipartite_graph(3, 4)]]
    potentials = [phi for phi in certified if phi is not None]
    assert len(potentials) >= 3 and {phi.primes for phi in potentials} >= {(2,), (2, 3)}
    # rows over three primes fold several columns; the same rows as Python
    # ints take the object branch, and so do rows beyond int64
    for g in corpus:
        rows = np.array([[rng.randint(-3, 3) for _ in range(3)] for _ in range(g.dart_count)], dtype=np.int64)
        potentials.append(_Potential((2, 3, 5), rng.choice([1, 2, 6]), rows))
        potentials.append(_Potential((2, 3, 5), 6, rows.astype(object)))
    huge = np.array([[2**70, -(2**71)], [0, 3 * 2**70], [2**70, -(2**71)]], dtype=object)
    potentials.append(_Potential((2, 3), 3 * 2**70, huge))
    for phi in potentials:
        assert phi.as_pairs() == pairs_by_dart(phi)


# --- improving cycle ----------------------------------------------------------


def test_improving_cycle_k4e(k4e):
    f = path_growth_function(k4e)
    lam_exact, _ = average_growth_rate(k4e)
    cycle = find_improving_cycle(k4e)
    cycle_is_valid(k4e, cycle)
    mean = geometric_mean([f[d] for d in cycle])
    # a strictly below-average path exists, so the cycle is strictly above
    assert mean > lam_exact
    assert mean == exact(2, 2, 3)


def test_improving_cycle_constant_function(k4):
    f = path_growth_function(k4)
    assert set(f) == {ExactValue.from_integer(2)}  # every path of the regular graph balances at 2
    cycle = find_improving_cycle(k4)
    cycle_is_valid(k4, cycle)
    assert geometric_mean([f[d] for d in cycle]) == ExactValue.from_integer(2)


def test_improving_cycle_w523(w523):
    f = path_growth_function(w523)
    cycle = find_improving_cycle(w523)
    cycle_is_valid(w523, cycle)
    assert geometric_mean([f[d] for d in cycle]) == exact(2, 1, 2)


def test_improving_cycle_on_corpus():
    rng = random.Random(1313)
    for _ in range(40):
        g = random_nb_irreducible(rng, max_vertices=8)
        f = path_growth_function(g)
        global_mean = geometric_mean(f)
        cycle = find_improving_cycle(g)
        cycle_is_valid(g, cycle)
        mean = geometric_mean([f[d] for d in cycle])
        assert mean >= global_mean
        if any(p.g_value < global_mean for p in suspended_path_decomposition(g)):
            assert mean > global_mean


def test_improving_cycle_balloon_anchor():
    # a cycle hanging on a degree-3 vertex: removing it strands a chain
    g = build_graph(
        6,
        [
            (0, 1), (1, 2), (2, 0),      # balloon-ish triangle at 0
            (0, 3),                      # bridge chain
            (3, 4), (4, 5), (5, 3),      # triangle at 3
        ],
    )
    f = path_growth_function(g)
    cycle = find_improving_cycle(g)
    cycle_is_valid(g, cycle)
    assert geometric_mean([f[d] for d in cycle]) >= geometric_mean(f)


def enumerate_simple_cycle_means(g, f):
    """All simple cycles of the transition digraph, by DFS from each
    minimal dart; independent oracle for the max-mean search."""
    best = None
    n = g.dart_count

    def extend(start, dart, path_set, product, length):
        nonlocal best
        for nxt in dart_transitions(g, dart):
            if nxt == start:
                mean = (product * f[dart]) ** Fraction(1, length)
                if best is None or mean > best:
                    best = mean
            elif nxt > start and nxt not in path_set:
                extend(start, nxt, path_set | {nxt}, product * f[dart], length + 1)

    for start in range(n):
        extend(start, start, {start}, ExactValue.one(), 1)
    return best


def test_max_mean_cycle_matches_enumeration():
    from nbrw.conditions import _max_mean_cycle

    rng = random.Random(2323)
    for _ in range(12):
        g = random_nb_irreducible(rng, max_vertices=4, degree_range=(2, 4))
        f = path_growth_function(g)
        cycle = _max_mean_cycle(g)
        cycle_is_valid(g, cycle)
        karp_mean = geometric_mean([f[d] for d in cycle])
        brute_mean = enumerate_simple_cycle_means(g, f)
        assert karp_mean == brute_mean


def test_max_mean_cycle_matches_enumeration_inside_paths():
    # graphs with many degree-2 vertices: the best cycle can be closed by a
    # Karp walk that ends inside a suspended path
    from nbrw.conditions import _max_mean_cycle

    rng = random.Random(2525)
    for _ in range(30):
        g = random_nb_irreducible(rng, max_vertices=5, degree_range=(2, 3))
        f = path_growth_function(g)
        cycle = _max_mean_cycle(g)
        cycle_is_valid(g, cycle)
        assert geometric_mean([f[d] for d in cycle]) == enumerate_simple_cycle_means(g, f)


def test_improving_cycle_validates_input():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(PreconditionError):
        find_improving_cycle(c5)


def two_cycle_balloon(k):
    """Two k-cycles joined by a bridge of two edges: 4k + 4 darts."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return build_graph(2 * k + 1, edges + [(0, 2 * k), (2 * k, k)])


def test_improving_cycle_balloon_falls_back_to_maximum_mean(monkeypatch):
    from nbrw import conditions

    g = two_cycle_balloon(1000)
    assert g.dart_count == 4004
    f = path_growth_function(g)
    fallbacks = []
    search = conditions._max_mean_cycle
    monkeypatch.setattr(conditions, "_max_mean_cycle", lambda *args: fallbacks.append(1) or search(*args))
    start = time.perf_counter()
    cycle = find_improving_cycle(g)
    elapsed = time.perf_counter() - start
    cycle_is_valid(g, cycle)
    assert fallbacks == [1]  # peeling either loop strands the bridge
    # the best cycle crosses the bridge both ways and each loop once: 2004
    # darts, 4000 at 2 ** (1/1000) and 4 at 2 ** (1/2)
    assert geometric_mean([f[d] for d in cycle]) == exact(2, 1, 501)
    assert elapsed < 0.5
    tracemalloc.start()
    try:
        assert find_improving_cycle(g) == cycle
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000  # Karp's table on the 6 suspended paths, not on 4,004 darts


def test_max_mean_cycle_refuses_above_its_table_bound():
    from nbrw.conditions import _MAX_MEAN_CELLS, _max_mean_cycle

    g = wheel_graph(256, 1, 1)  # 1,024 darts, each one a suspended path
    assert (g.dart_count + 1) * len(g.suspended_paths.length) > _MAX_MEAN_CELLS
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            _max_mean_cycle(g)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1_000_000  # refused before any table is built
