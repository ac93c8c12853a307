import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import _reference_variance as reference
from nbrw import (
    PreconditionError,
    asymptotic_variance,
    build_graph,
    build_transition_matrix,
    centered_bit_values,
    complete_bipartite_graph,
    complete_graph,
    equal_growth_wheel,
    growth_verdict,
    subdivide,
    truncated_variance,
    variance_report,
    wheel_graph,
)
from nbrw.graph import HALF_LOOP, WHOLE_LOOP
from nbrw.variance import _DENSE_UNKNOWNS

from _corpus import random_nb_irreducible


def test_centered_values_k4e(k4e):
    f = centered_bit_values(k4e)
    assert np.allclose(sorted(set(np.round(f, 12))), [-0.6, 0.4])
    assert abs(float(np.full(k4e.dart_count, 1 / k4e.dart_count) @ f)) <= 1e-12


def test_centered_values_zero_mean_on_corpus():
    rng = random.Random(1818)
    for _ in range(40):
        g = random_nb_irreducible(rng)
        f = centered_bit_values(g)
        assert abs(float(np.full(g.dart_count, 1 / g.dart_count) @ f)) <= 1e-12


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
        reduced = reference.chain_asymptotic_variance(matrix, pi, f)
        assert abs(reduced - asymptotic_variance(k4e)) <= 1e-12
        assert abs(reduced - 2 / 125) <= 1e-12


def test_chain_asymptotic_variance_sparse_input():
    rng = random.Random(2121)
    for _ in range(20):
        g = random_nb_irreducible(rng)
        p = reference.operator_csr(g, build_transition_matrix(g))
        pi, f = np.full(g.dart_count, 1 / g.dart_count), centered_bit_values(g)
        sparse = reference.chain_asymptotic_variance(p, pi, f)
        assert abs(sparse - reference.chain_asymptotic_variance(p.toarray(), pi, f)) <= 1e-12
        assert abs(sparse - asymptotic_variance(g)) <= 1e-12


def test_chain_asymptotic_variance_validates_shapes():
    with pytest.raises(ValueError):
        reference.chain_asymptotic_variance(np.eye(3), np.ones(2) / 2, np.zeros(3))


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


def test_reduced_solve_matches_dense_fundamental_solve():
    # the dense (I - P + 1 pi') x = f system, built here as its own oracle
    rng = random.Random(2222)
    for _ in range(100):
        g = random_nb_irreducible(rng)
        n = g.dart_count
        f = centered_bit_values(g)
        p = reference.operator_csr(g, build_transition_matrix(g))
        a = np.eye(n) - p.toarray() + np.full((n, n), 1.0 / n)
        x = np.linalg.solve(a, f)
        assert abs(asymptotic_variance(g) - (-(f @ f) + 2.0 * (f @ x)) / n) <= 1e-12


def test_truncated_variance_matches_per_arc_iteration():
    # the reference iterates the per-arc CSR transition matrix; the factored
    # operator applies the same P to signed vectors through the vertices
    rng = random.Random(2424)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.3) for _ in range(40)]
    graphs += [wheel_graph(5, 3, 2), equal_growth_wheel(8)]
    for g in graphs:
        for length in (1, 8, 64, 1025):
            expected = reference.truncated_variance(g, length)
            assert abs(truncated_variance(g, length) - expected) <= 1e-12 * abs(expected), (g, length)


def _turns_back(g):
    """Whether some suspended path between branching darts is its own
    reverse: it runs into a half-loop on a degree-2 vertex and comes back."""
    paths = g.suspended_paths
    branching = np.flatnonzero(g.out_degree_vector() > 1)
    rev = g.dart_reverse[branching]
    return bool(np.any((paths.anchor[rev] == branching) & (paths.dist[rev] > 0)))


def test_reduced_solve_matches_split_solve_on_corpus():
    # the reference is the D + V vertex-split system that the solve on the
    # branching vertices replaced
    rng = random.Random(2323)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.5) for _ in range(320)]
    kinds = {kind for g in graphs for _, _, kind in g.edges}
    assert {HALF_LOOP, WHOLE_LOOP} <= kinds
    assert any(len({tuple(sorted(e[:2])) for e in g.edges}) < len(g.edges) for g in graphs)
    assert sum(map(_turns_back, graphs)) >= 5
    splits = [reference.asymptotic_variance(g) for g in graphs]
    assert sum(split > 1e-6 for split in splits) >= 200
    for g, split in zip(graphs, splits):
        # relative where the variance is positive, absolute where it is 0 up to rounding
        assert abs(asymptotic_variance(g) - split) <= (1e-12 * split if split > 1e-6 else 1e-12)


def _log2(n):
    """log2(n) as a Fraction: exact for powers of two, else to 50 digits."""
    if n & (n - 1) == 0:
        return Fraction(n.bit_length() - 1)
    with localcontext() as context:
        context.prec = 60
        return Fraction(Decimal(n).ln() / Decimal(2).ln())


def _wheel_variance(n, l1, l2):
    """The limit on wheel(n, l1, l2), in Fractions.

    Rotation maps the wheel onto itself, so its darts fall into 2(l1 + l2)
    classes of n: rim darts by direction and position, spoke darts out of and
    into the hub by position.  All darts of a class have the same successor
    classes, so the classes form a Markov chain with the same bit total, and
    its Poisson equation is solved by Gauss-Jordan elimination.
    """
    rim_cw, rim_ccw, out, into = 0, l1, 2 * l1, 2 * l1 + l2
    size = 2 * (l1 + l2)
    hub = _log2(n - 1)
    c = (3 + hub) / size  # log2(lambda): 3n darts of outdeg 2, n of outdeg n - 1
    f = [-c] * size
    step = [[Fraction(0)] * size for _ in range(size)]
    for first, length in ((rim_cw, l1), (rim_ccw, l1), (out, l2), (into, l2)):
        for i in range(first, first + length - 1):
            step[i][i + 1] = Fraction(1)
    for rim in (rim_cw, rim_ccw):  # at a junction: on along the rim or into the hub
        step[rim + l1 - 1][rim] += Fraction(1, 2)
        step[rim + l1 - 1][into] += Fraction(1, 2)
        f[rim + l1 - 1] = 1 - c
    step[out + l2 - 1][rim_cw] = step[out + l2 - 1][rim_ccw] = Fraction(1, 2)
    f[out + l2 - 1] = 1 - c
    step[into + l2 - 1][out] = Fraction(1)  # through the hub: out along another spoke
    f[into + l2 - 1] = hub - c
    # (I - P) x = f with x_0 = 0
    rows = [[int(i == j) - step[i][j] for j in range(size)] + [f[i]] for i in range(size)]
    rows[0] = [Fraction(1)] + [Fraction(0)] * size
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col]:
                ratio = rows[r][col] / rows[col][col]
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[col])]
    x = [rows[i][size] / rows[i][i] for i in range(size)]
    return sum(fi * (2 * xi - fi) for fi, xi in zip(f, x)) / size


@pytest.mark.parametrize(
    "spokes, l1, l2, exact",
    [
        (5, 2, 3, Fraction(0)),
        (129, 4, 11, Fraction(1, 135)),
        (1025, 2, 12, Fraction(1, 2744)),
        (4097, 2, 12, Fraction(1, 2744)),
        (_DENSE_UNKNOWNS - 1, 2, 3, None),
        (_DENSE_UNKNOWNS, 2, 3, None),
    ],
    ids=["w523", "w129-4-11", "w1025-2-12", "w4097-2-12", "at-dense-cutoff", "above-dense-cutoff"],
)
def test_asymptotic_variance_on_wheels(spokes, l1, l2, exact):
    # a wheel's branching vertices, one unknown each, are its hub and the
    # spokes' rim ends, so the last two wheels sit on either side of the
    # dense cutoff.  The class chain is the oracle here because the D + V
    # split solve that this one replaced is itself off by up to 2e-10 on
    # wheels this size (1.9e-10 on w4097-2-12, 7.6e-11 above the cutoff).
    value = _wheel_variance(spokes, l1, l2)
    assert exact is None or value == exact
    limit = asymptotic_variance(wheel_graph(spokes, l1, l2))
    assert abs(limit - value) <= 1e-12 * value + 1e-15


def test_asymptotic_variance_memory_hk8():
    # hk8 has 5,654 darts: a dense D x D solve would allocate over 700 MB.
    # A strict wheel at the dense cutoff builds one n x n float64 matrix of
    # 8 n**2 bytes = 18.9 MB for n = 1,536 unknowns (LAPACK's working copy
    # is allocated outside tracemalloc); 25 MB leaves room for the O(D)
    # vectors, and a larger cutoff fails here before it costs hundreds of MB.
    at_cutoff = wheel_graph(_DENSE_UNKNOWNS - 1, 1, 2)
    for g, bound, strict in ((equal_growth_wheel(8), 50_000_000, False), (at_cutoff, 25_000_000, True)):
        tracemalloc.start()
        try:
            limit = asymptotic_variance(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert limit > 1e-6 if strict else abs(limit) <= 1e-9
        assert peak < bound


def test_dichotomy_on_corpus():
    # the random graphs all come out strict, so equal ones are added: balanced
    # wheels, w523 and a subdivided K4
    rng = random.Random(2020)
    corpus = [random_nb_irreducible(rng) for _ in range(50)]
    corpus += [equal_growth_wheel(k) for k in (4, 5, 6)] + [wheel_graph(5, 2, 3), subdivide(complete_graph(4), 3)]
    equal_seen = strict_seen = 0
    for g in corpus:
        verdict = growth_verdict(g, rel_tol=1e-10)
        limit = asymptotic_variance(g)
        if verdict.equal:
            equal_seen += 1
            assert abs(limit) <= 1e-9
        else:
            strict_seen += 1
            assert limit > 1e-6
    assert equal_seen >= 5
    assert strict_seen >= 10


def test_dichotomy_equal_branch_families(k4, w523):
    for g in (k4, w523, complete_bipartite_graph(3, 4)):
        assert growth_verdict(g).equal
        assert asymptotic_variance(g) == 0.0


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
