import math
import random

import numpy as np
import pytest

from nbrw import (
    PowerIterationError,
    PreconditionError,
    build_graph,
    build_transition_matrix,
    build_weighted_matrix,
    complete_bipartite_graph,
    complete_graph,
    cover_growth_rate,
    average_growth_rate,
    check_cycle_condition,
    equal_growth_wheel,
    factored_nb_operator,
    interpolation_matrix,
    nb_perron,
    operators,
    perron,
    wheel_graph,
)

import _reference_variance as reference
from _corpus import graphs_with_loops, random_nb_irreducible, random_regular
from _reference_walks import count_nb_walks, enumerate_nb_walks


def test_b_matrix_k4e(k4e):
    b = factored_nb_operator(k4e)
    assert b.shape == (10, 10)
    m = reference.operator_csr(k4e, b)
    assert m.nnz == 16  # six darts with two continuations, four with one
    assert set(m.data) == {1.0}


def test_b_matrix_k4_regular(k4):
    b = reference.operator_csr(k4, factored_nb_operator(k4))
    row_sums = np.asarray(b.sum(axis=1)).ravel()
    assert np.all(row_sums == 2)


def test_b_matrix_triangle_two_orbits():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    b = reference.operator_csr(g, factored_nb_operator(g))
    # permutation matrix: every row and column has exactly one entry
    assert b.nnz == 6
    assert np.all(np.asarray(b.sum(axis=1)).ravel() == 1)
    assert np.all(np.asarray(b.sum(axis=0)).ravel() == 1)
    # orbits: following the unique successor returns to the start in 3 steps
    succ = {e: int(b[e].indices[0]) for e in range(6)}
    for start in range(6):
        e = start
        for _ in range(3):
            e = succ[e]
        assert e == start


def test_transition_matrix_stochastic_on_corpus():
    rng = random.Random(303)
    for _ in range(100):
        g = random_nb_irreducible(rng)
        p = reference.operator_csr(g, build_transition_matrix(g))
        row_sums = np.asarray(p.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums - 1.0)) <= 1e-12
        nu = np.full(g.dart_count, 1 / g.dart_count)
        assert np.max(np.abs(nu @ p - nu)) <= 1e-12


def test_transition_matrix_requires_irreducible():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(PreconditionError):
        build_transition_matrix(c5)
    # B itself is fine on a cycle (min degree two)
    assert reference.operator_csr(c5, factored_nb_operator(c5)).nnz == 10


def test_weighted_matrix_special_cases(k4e):
    n = k4e.dart_count

    def csr(op):
        return reference.operator_csr(k4e, op)

    p = csr(build_transition_matrix(k4e))
    b = csr(factored_nb_operator(k4e))
    outdeg = k4e.out_degree_vector().astype(float)

    ones = csr(build_weighted_matrix(k4e, np.ones(n)))
    assert np.max(np.abs((ones - p).toarray())) == 0

    as_b = csr(build_weighted_matrix(k4e, outdeg))
    assert np.max(np.abs((as_b - b).toarray())) <= 1e-15

    m_half = csr(interpolation_matrix(k4e, 0.5))
    expected = np.power(p.toarray(), 0.5) * np.power(b.toarray(), 0.5)
    assert np.max(np.abs(m_half.toarray() - expected)) <= 1e-15

    m0 = csr(interpolation_matrix(k4e, 0.0))
    m1 = csr(interpolation_matrix(k4e, 1.0))
    assert np.max(np.abs((m0 - p).toarray())) <= 1e-15
    assert np.max(np.abs((m1 - b).toarray())) <= 1e-15


def test_weighted_matrix_rejects_bad_beta(k4e):
    with pytest.raises(PreconditionError):
        build_weighted_matrix(k4e, np.zeros(k4e.dart_count))
    with pytest.raises(PreconditionError):
        build_weighted_matrix(k4e, np.ones(3))


def test_perron_on_reduced_3x3():
    m = np.array([[0, 0, 1], [2, 0, 0], [1, 1, 0]], dtype=float)
    assert abs(perron(m).value - 1.5214) <= 1e-4


def test_perron_identity():
    assert abs(perron(np.eye(5)).value - 1.0) <= 1e-12


def test_perron_k4(k4):
    assert abs(perron(factored_nb_operator(k4)).value - 2.0) <= 1e-12


def test_perron_reports_iterations(k4e):
    result = perron(factored_nb_operator(k4e))
    assert result.iterations >= 1
    assert abs(result.value - 1.5213797068) <= 1e-9


def test_perron_non_convergence_carries_estimate(k4e):
    with pytest.raises(PowerIterationError) as err:
        perron(factored_nb_operator(k4e), rel_tol=1e-12, max_iter=2)
    assert err.value.iterations == 2
    assert 1.0 < err.value.last_estimate < 3.0


def test_rho_k4e_and_wheel(k4e, w523):
    assert abs(cover_growth_rate(k4e) - 1.521380) <= 1e-5
    assert abs(cover_growth_rate(w523) - math.sqrt(2)) <= 1e-8


def test_rho_requires_irreducible():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(PreconditionError):
        cover_growth_rate(c5)


def test_rho_periodic_graph_converges():
    # heavy subdivision makes B periodic; the +I shift must still converge
    w = wheel_graph(4, 2, 4)
    value = cover_growth_rate(w)
    assert value > 1.0


def test_count_walks_k4(k4):
    for length in (0, 1, 5, 12, 40):
        assert count_nb_walks(k4, 0, length) == 2**length


def test_count_walks_k4e_outdeg(k4e):
    assert count_nb_walks(k4e, 0, 1) == 2
    assert count_nb_walks(k4e, 0, 0) == 1


def test_count_walks_growth_rate_per_dart(k4e):
    for e in range(k4e.dart_count):
        count = count_nb_walks(k4e, e, 40)
        assert abs(count ** (1 / 40) - 1.5214) <= 0.02


def test_enumeration_matches_iteration_spot():
    rng = random.Random(404)
    g = random_nb_irreducible(rng, max_vertices=6, degree_range=(2, 3))
    for e in range(g.dart_count):
        for length in (0, 1, 2, 5, 8):
            assert enumerate_nb_walks(g, e, length) == count_nb_walks(g, e, length)


def test_enumeration_refuses_large_length(k4e):
    with pytest.raises(ValueError):
        enumerate_nb_walks(k4e, 0, 13)


def test_rho_at_least_lambda_on_corpus():
    rng = random.Random(505)
    for _ in range(60):
        g = random_nb_irreducible(rng)
        _, lam = average_growth_rate(g)
        assert cover_growth_rate(g, rel_tol=1e-10) - lam >= -1e-9


def test_log_convexity_bounds_k4e(k4e):
    _, lam = average_growth_rate(k4e)
    rho = cover_growth_rate(k4e)
    for t in [x / 10 for x in range(1, 10)]:
        middle = perron(interpolation_matrix(k4e, t)).value
        assert middle >= lam**t - 1e-9
        assert middle <= rho**t + 1e-9
    assert perron(interpolation_matrix(k4e, 0.5)).value < math.sqrt(rho) - 1e-4


def test_log_convexity_equality_on_regular(k4):
    for t in [x / 10 for x in range(1, 10)]:
        assert abs(perron(interpolation_matrix(k4, t)).value - 2**t) <= 1e-9


def test_log_convexity_equality_on_biregular():
    g = complete_bipartite_graph(2, 3)
    _, lam = average_growth_rate(g)
    rho = cover_growth_rate(g)
    assert abs(rho - lam) <= 1e-10
    for t in (0.25, 0.5, 0.75):
        assert abs(perron(interpolation_matrix(g, t)).value - lam**t) <= 1e-9


def test_weighted_perron_jensen_lower_bound():
    rng = random.Random(606)
    for _ in range(20):
        g = random_nb_irreducible(rng)
        beta = np.array([0.1 + 1.9 * rng.random() for _ in range(g.dart_count)])
        value = perron(build_weighted_matrix(g, beta), rel_tol=1e-10).value
        geo = float(np.exp(np.mean(np.log(beta))))
        assert value >= geo - 1e-9


def test_factored_operator_matches_matrix_on_corpus():
    rng = random.Random(717)
    for _ in range(200):
        g = random_nb_irreducible(rng)
        np_rng = np.random.default_rng(rng.randrange(2**32))
        # a dynamic range of 1e60 makes outsum - x[rev] cancel wherever x[rev] dominates
        x = 10.0 ** np_rng.uniform(-30, 30, g.dart_count)
        expected = reference._adjacency_csr(g) @ x
        assert np.allclose(factored_nb_operator(g) @ x, expected, rtol=1e-14, atol=0)


def test_factored_operators_match_matrix_on_signed_vectors():
    # two darts leaving one vertex can both outweigh the rest once x has
    # signs, which the cancellation repair of the sums must not mistake
    rng = random.Random(818)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.3) for _ in range(100)]
    graphs += [wheel_graph(5, 3, 2), equal_growth_wheel(8)]
    for g in graphs:
        x = np.random.default_rng(rng.randrange(2**32)).standard_normal(g.dart_count)
        for op in (factored_nb_operator(g), build_transition_matrix(g), interpolation_matrix(g, 0.3)):
            expected = reference.operator_csr(g, op) @ x
            assert np.abs(op @ x - expected).max() <= 1e-13 * np.abs(expected).max(), g


def test_factored_operator_resolves_dominated_vertices():
    # K5 with two 60-edge loops on vertex 0: the Perron vector spans 3**60
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    nv = 5
    for _ in range(2):
        prev = 0
        for _ in range(59):
            edges.append((prev, nv))
            prev, nv = nv, nv + 1
        edges.append((prev, 0))
    g = build_graph(nv, edges)
    result = perron(factored_nb_operator(g), rel_tol=1e-13)
    assert abs(result.value - perron(reference._adjacency_csr(g), rel_tol=1e-13).value) <= 1e-12


def test_perron_agrees_on_factored_sparse_and_dense_forms():
    # perron needs only shape and @, so a scipy matrix and a numpy array
    # run the same iteration as the factored operator
    rng = random.Random(919)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.3) for _ in range(40)]
    graphs += graphs_with_loops(rng) + [wheel_graph(5, 3, 2)]
    for g in graphs:
        csr = reference._adjacency_csr(g)
        results = [perron(op) for op in (factored_nb_operator(g), csr, csr.toarray())]
        for result in results:
            assert result.low <= result.value <= result.high
        assert max(r.low for r in results) <= min(r.high for r in results) + 1e-12, g
        assert max(r.value for r in results) - min(r.value for r in results) <= 1e-12, g


def test_perron_rejects_non_square_and_empty_operators():
    with pytest.raises(ValueError, match="operator must be square"):
        perron(np.ones((2, 3)))
    with pytest.raises(ValueError, match="operator is empty"):
        perron(np.zeros((0, 0)))


def test_perron_bracket_contains_value(k4e):
    result = perron(factored_nb_operator(k4e), rel_tol=1e-12)
    assert result.low <= result.value <= result.high
    assert result.high - result.low <= 1e-12 * result.low


def test_potential_start_certifies_in_one_matvec():
    for g in (equal_growth_wheel(4), complete_bipartite_graph(2, 3), random_regular(random.Random(5))):
        phi = check_cycle_condition(g).phi
        result = perron(factored_nb_operator(g), start=np.exp(phi.log()))
        assert result.iterations == 1
        assert result.low <= float(average_growth_rate(g)[0]) <= result.high


def test_perron_rejects_non_positive_start(k4e):
    with pytest.raises(ValueError):
        perron(factored_nb_operator(k4e), start=np.zeros(k4e.dart_count))


def test_perron_gives_up_when_the_bracket_stops_narrowing():
    # rounding keeps this bracket a few ulps wide, far above 1e-18, so the
    # iteration must stop on the stall instead of running to max_iter
    g = wheel_graph(9, 3, 4)
    with pytest.raises(PowerIterationError) as err:
        perron(factored_nb_operator(g), rel_tol=1e-18)
    assert err.value.iterations < 5000
    assert "stopped narrowing" in str(err.value)
    assert abs(err.value.last_estimate - perron(factored_nb_operator(g)).value) <= 1e-11


@pytest.mark.parametrize("cap", [None, 1])
def test_quotient_start_certifies_on_b_on_corpus(monkeypatch, applications, cap):
    """The start lifted from B reduced to the branching darts gives a B
    bracket that overlaps the constant start's; cut to one reduced step,
    perron on B still certifies from it."""
    if cap is not None:
        monkeypatch.setattr(operators, "_QUOTIENT_STEPS", cap)
    rng = random.Random(2323)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.3) for _ in range(60)]
    graphs += graphs_with_loops(rng)
    # no degree-2 vertex, so the reduction is B itself; and a periodic B
    graphs += [complete_graph(4), complete_bipartite_graph(3, 3), wheel_graph(4, 2, 4)]
    for g in graphs:
        plain = perron(factored_nb_operator(g))
        del applications[:]
        seeded = nb_perron(g)
        assert seeded.matvecs == len(applications)
        if cap is not None:
            assert seeded.matvecs == seeded.iterations + cap
        for result in (seeded, plain):
            assert result.low <= result.value <= result.high
            assert result.high - result.low <= 1e-12 * result.low
        # each bracket is evaluated in floating point, so two of them can
        # miss by a rounding: on K4 the constant start 1/12 gives 2 + 1 ulp
        assert max(seeded.low, plain.low) <= min(seeded.high, plain.high) * (1 + 4e-16), g


def test_quotient_solve_takes_newton_steps_on_uneven_paths(applications):
    # K4 with a 200-edge path from vertex 0 to vertex 1: the z update needs
    # the slope of log r in log z, which no fixed exponent such as one over
    # the mean path length stands in for (that one takes 809 reduced steps)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(0, 4)] + [(v, v + 1) for v in range(4, 202)] + [(202, 1)]
    g = build_graph(203, edges)
    result = nb_perron(g)
    assert result.matvecs == len(applications) < 100
    plain = perron(factored_nb_operator(g))
    assert max(result.low, plain.low) <= min(result.high, plain.high) * (1 + 4e-16)
