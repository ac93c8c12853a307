import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from nbrw import (
    PreconditionError,
    asymptotic_variance,
    build_graph,
    build_transition_matrix,
    centered_bit_values,
    chain_asymptotic_variance,
    complete_bipartite_graph,
    equal_growth_wheel,
    growth_verdict,
    stationary_distribution,
    truncated_variance,
    variance_report,
)

from _corpus import random_nb_irreducible


def test_centered_values_k4e(k4e):
    f = centered_bit_values(k4e)
    assert np.allclose(sorted(set(np.round(f, 12))), [-0.6, 0.4])
    assert abs(float(stationary_distribution(k4e) @ f)) <= 1e-12


def test_centered_values_zero_mean_on_corpus():
    rng = random.Random(1818)
    for _ in range(40):
        g = random_nb_irreducible(rng)
        f = centered_bit_values(g)
        assert abs(float(stationary_distribution(g) @ f)) <= 1e-12


def test_truncated_variance_l1_k4e(k4e):
    # (1/10) f'f = (6/10)(2/5)^2 + (4/10)(3/5)^2 = 6/25
    assert abs(truncated_variance(k4e, 1) - 0.24) <= 1e-12


def test_truncated_variance_k4_zero(k4):
    for length in (1, 5, 100):
        assert abs(truncated_variance(k4, length)) <= 1e-15


def test_truncated_variance_approaches_limit(k4e):
    values = [truncated_variance(k4e, l) for l in (128, 512, 2048)]
    for v in values:
        assert v > 0
    gaps = [abs(v - 0.016) for v in values]
    assert gaps[2] < gaps[0]
    assert gaps[2] <= 1e-4


def test_asymptotic_variance_k4e(k4e):
    assert abs(asymptotic_variance(k4e) - 2 / 125) <= 1e-9


def test_asymptotic_variance_regular_and_biregular(k4):
    assert abs(asymptotic_variance(k4)) <= 1e-12
    g23 = complete_bipartite_graph(2, 3)
    f = centered_bit_values(g23)
    assert np.max(np.abs(f)) > 0.1  # non-trivially centered, yet zero variance
    assert abs(asymptotic_variance(g23)) <= 1e-12


def test_asymptotic_variance_w523(w523):
    assert abs(asymptotic_variance(w523)) <= 1e-9


def test_quotient_consistency_k4e(k4e):
    # collapsing the ten darts to the three transition types preserves the limit
    pi = np.array([1 / 5, 2 / 5, 2 / 5])
    p = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    f = np.array([2 / 5, 2 / 5, -3 / 5])
    for matrix in (p, sp.csr_matrix(p), sp.coo_matrix(p), sp.csc_matrix(p)):
        reduced = chain_asymptotic_variance(matrix, pi, f)
        assert abs(reduced - asymptotic_variance(k4e)) <= 1e-12
        assert abs(reduced - 2 / 125) <= 1e-12


def test_chain_asymptotic_variance_sparse_input():
    rng = random.Random(2121)
    for _ in range(20):
        g = random_nb_irreducible(rng)
        p = build_transition_matrix(g).matrix
        pi, f = stationary_distribution(g), centered_bit_values(g)
        sparse = chain_asymptotic_variance(p, pi, f)
        assert abs(sparse - chain_asymptotic_variance(p.toarray(), pi, f)) <= 1e-12
        assert abs(sparse - asymptotic_variance(g)) <= 1e-12


def test_chain_asymptotic_variance_validates_shapes():
    with pytest.raises(ValueError):
        chain_asymptotic_variance(np.eye(3), np.ones(2) / 2, np.zeros(3))


def test_oracle_equivalence_on_corpus():
    # the truncated sum is the independent oracle for the fundamental solve;
    # the finite-length error scales with the variance itself, so the bound
    # is 1e-4 at the desk scale (limit <= 0.016) and proportional above it
    rng = random.Random(1919)
    for _ in range(50):
        g = random_nb_irreducible(rng)
        limit = asymptotic_variance(g)
        # average consecutive lengths to damp oscillation from periodic chains
        pair = (truncated_variance(g, 4096) + truncated_variance(g, 4097)) / 2
        assert abs(pair - limit) <= max(1e-4, limit * 1e-4 / 0.016)
        coarse = (truncated_variance(g, 1024) + truncated_variance(g, 1025)) / 2
        assert abs(pair - limit) <= abs(coarse - limit) + 1e-9


def test_split_solve_matches_dense_fundamental_solve():
    # the dense (I - P + 1 pi') x = f system, built here as its own oracle
    rng = random.Random(2222)
    for _ in range(100):
        g = random_nb_irreducible(rng)
        n = g.dart_count
        f = centered_bit_values(g)
        a = np.eye(n) - build_transition_matrix(g).matrix.toarray() + np.full((n, n), 1.0 / n)
        x = np.linalg.solve(a, f)
        assert abs(asymptotic_variance(g) - (-(f @ f) + 2.0 * (f @ x)) / n) <= 1e-12


def test_asymptotic_variance_memory_hk8():
    # hk8 has 5,654 darts: a dense D x D solve would allocate over 700 MB
    g = equal_growth_wheel(8)
    tracemalloc.start()
    try:
        limit = asymptotic_variance(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(limit) <= 1e-9
    assert peak < 50_000_000


def test_dichotomy_on_corpus():
    rng = random.Random(2020)
    equal_seen = strict_seen = 0
    for _ in range(50):
        g = random_nb_irreducible(rng)
        verdict = growth_verdict(g, rel_tol=1e-10)
        limit = asymptotic_variance(g)
        if verdict.equal:
            equal_seen += 1
            assert abs(limit) <= 1e-9
        else:
            strict_seen += 1
            assert limit > 1e-6
    assert strict_seen >= 10


def test_dichotomy_equal_branch_families(k4, w523):
    for g in (k4, w523, complete_bipartite_graph(3, 4)):
        assert growth_verdict(g).equal
        assert abs(asymptotic_variance(g)) <= 1e-9


def test_variance_report_json(k4e):
    report = variance_report(k4e, truncate_at=[64, 128])
    payload = report.to_json()
    assert abs(payload["limit"] - 0.016) <= 1e-9
    assert payload["method"] == "fundamental_solve"
    assert [entry[0] for entry in payload["truncated"]] == [64, 128]


def test_variance_requires_irreducible():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(PreconditionError):
        asymptotic_variance(c5)
    with pytest.raises(PreconditionError):
        truncated_variance(c5, 8)
