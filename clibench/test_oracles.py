"""The benchmark's oracles against the paper's constants for K4 minus an edge.

    python -m pytest clibench
"""

import math

import oracles

K4E = oracles.parse_graph(oracles.K4E_TEXT)


def test_k4e_lambda_is_two_to_three_fifths():
    assert K4E.lambda_pairs() == [[2, 3, 5]]
    assert math.isclose(2.0 ** K4E.log2_lambda(), 2 ** 0.6, rel_tol=1e-15)


def test_k4e_rho_bracket_holds_root_of_cubic():
    low, high = K4E.rho_bracket(rel_tol=1e-13)
    assert low - 1e-12 <= oracles.K4E_RHO <= high + 1e-12
    assert abs(oracles.K4E_RHO**3 - oracles.K4E_RHO - 2) < 1e-12


def test_k4e_variance_is_two_over_125():
    assert math.isclose(K4E.asymptotic_variance(), 2 / 125, rel_tol=1e-12)
    assert abs(K4E.finite_variance(4000) - 2 / 125) < 2e-4


def test_k4e_is_strict_and_its_witnesses_are_judged():
    assert not K4E.rates_equal()
    assert sorted(K4E.path_balances()) == [(4, 1), (4, 2)]
    # 0 -> 1 straight (dart 0) is a suspended path with balance 4 = 2**2 != lambda**2
    assert K4E.is_violating_path([0])
    # the triangle 0 -> 1 -> 2 -> 0: darts 0, 5 (1 -> 2), 3 (2 -> 0)
    assert K4E.is_closed_nb_walk([0, 5, 3])
    assert K4E.is_violating_cycle([0, 5, 3])
    # reversing into the arriving dart is backtracking
    assert not K4E.is_closed_nb_walk([0, 1])


def test_self_check_run_by_the_benchmark_passes():
    assert oracles.k4e_self_check() == []


def test_regular_graph_is_equal_with_constant_potential():
    text = "nbgraph 4\ne 0 1\ne 1 2\ne 2 0\ne 0 3\ne 1 3\ne 2 3\n"  # K4: every outdeg is 2
    g = oracles.parse_graph(text)
    assert g.rates_equal()
    phi = {d: [] for d in range(g.dart_count)}  # lambda = 2 = outdeg, so phi = 1 is a certificate
    assert g.potential_holds(phi)
    phi[3] = [[2, 1, 2]]
    assert not g.potential_holds(phi)
    low, high = g.rho_bracket()
    assert low <= 2.0 <= high
    assert abs(g.asymptotic_variance()) < 1e-12
