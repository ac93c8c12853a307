"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from nbrw import (
    ExactValue,
    asymptotic_variance,
    average_growth_rate,
    check_cycle_condition,
    check_suspended_path_condition,
    complete_bipartite_graph,
    complete_graph,
    cover_growth_rate,
    equal_growth_wheel,
    exact_bit_distribution,
    growth_verdict,
    interpolation_matrix,
    k4_minus_edge,
    perron,
    run_walks,
    subdivide,
    truncated_variance,
    wheel_graph,
)

from _corpus import random_low_growth_graph, random_nb_irreducible, random_regular
from _reference_variance import chain_asymptotic_variance
from _reference_walks import count_nb_walks, enumerate_nb_walks, total_variation


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


def cubic_root_by_bisection() -> float:
    """Real root of x**3 - x - 2, independent of the eigensolver."""

    def poly(x: float) -> float:
        return x * x * x - x - 2.0

    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if poly(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_acceptance_1_k4e_constants():
    start = time.perf_counter()
    g = k4_minus_edge()
    lam_exact, lam_float = average_growth_rate(g)
    rho = cover_growth_rate(g, rel_tol=1e-12)
    root = cubic_root_by_bisection()
    elapsed = time.perf_counter() - start
    ok = (
        lam_exact == ExactValue.from_integer(2) ** Fraction(3, 5)
        and abs(lam_float - 2**0.6) <= 1e-9
        and abs(rho - 1.5214) <= 1e-4
        and abs(rho - root) <= 1e-9
        and elapsed < 1.0
    )
    report(1, ok, f"lambda={lam_float:.12f}, rho={rho:.12f}, root={root:.12f}, {elapsed:.3f}s")


def test_acceptance_2_asymptotic_variance():
    start = time.perf_counter()
    g = k4_minus_edge()
    limit = asymptotic_variance(g)
    pi = np.array([1 / 5, 2 / 5, 2 / 5])
    p = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    f = np.array([2 / 5, 2 / 5, -3 / 5])
    reduced = chain_asymptotic_variance(p, pi, f)
    elapsed = time.perf_counter() - start
    ok = abs(limit - 2 / 125) <= 1e-9 and abs(limit - reduced) <= 1e-12 and elapsed < 1.0
    report(2, ok, f"limit={limit:.12f}, |10-dart - 3-type|={abs(limit - reduced):.2e}, {elapsed:.3f}s")


def test_acceptance_3_monte_carlo():
    start = time.perf_counter()
    g = k4_minus_edge()
    stats = run_walks(g, 1000, 100_000, seed=1, workers=4).bit_stats()
    elapsed = time.perf_counter() - start
    mean_err = abs(stats.mean_bits_per_step - 0.6)
    var_per_step = stats.variance_of_bits / 1000
    ok = mean_err <= 0.003 and abs(var_per_step - 0.016) <= 0.1 * 0.016 and elapsed < 60.0
    report(
        3,
        ok,
        f"mean/step={stats.mean_bits_per_step:.5f} (err {mean_err:.1e}), "
        f"var/step={var_per_step:.5f}, {elapsed:.1f}s",
    )


def test_acceptance_4_exact_distribution():
    g = k4_minus_edge()
    ok = True
    details = []
    for length in (1, 10, 1000):
        dist = exact_bit_distribution(g, length)
        mean_exact = dist.expected_counts()[0]  # one tracked degree (2), one bit each
        exact_ok = mean_exact == Fraction(6 * length, 10)
        var_gap = abs(dist.variance_bits() - truncated_variance(g, length) * length)
        ok = ok and exact_ok and var_gap <= 1e-9
        details.append(f"l={length}: mean exact={exact_ok}, var gap={var_gap:.1e}")
    dist = exact_bit_distribution(g, 1000)
    batch = run_walks(g, 1000, 100_000, seed=2, workers=4)
    tv = total_variation(dist, batch.histogram(), batch.sample_count)
    ok = ok and tv <= 0.02
    report(4, ok, "; ".join(details) + f"; TV={tv:.4f}")


def test_acceptance_5_equivalence_suite():
    start = time.perf_counter()
    rng = random.Random(5050)
    graphs = [random_nb_irreducible(rng, max_vertices=10) for _ in range(200)]
    graphs += [
        complete_graph(4),
        complete_bipartite_graph(2, 3),
        equal_growth_wheel(2),
        equal_growth_wheel(3),
        subdivide(complete_graph(4), 2),
        random_regular(rng, degree=3),
    ]
    worst_equal_gap = 0.0
    smallest_strict_gap = math.inf
    agreements = 0
    for g in graphs:
        path_v = check_suspended_path_condition(g)
        cycle_v = check_cycle_condition(g)
        assert path_v.holds == cycle_v.holds
        agreements += 1
        verdict = growth_verdict(g, rel_tol=1e-12)
        if verdict.equal:
            worst_equal_gap = max(worst_equal_gap, abs(verdict.gap))
        else:
            smallest_strict_gap = min(smallest_strict_gap, verdict.gap)
    elapsed = time.perf_counter() - start
    ok = worst_equal_gap <= 1e-8 and smallest_strict_gap >= 1e-6 and elapsed < 120.0
    report(
        5,
        ok,
        f"{agreements} graphs agree; equal |gap| <= {worst_equal_gap:.2e}, "
        f"strict gap >= {smallest_strict_gap:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_6_family_suite():
    expected = {
        1: ExactValue.from_integer(2),
        2: ExactValue.from_integer(2) ** Fraction(1, 2),
        3: ExactValue.from_integer(2),
        4: ExactValue.from_integer(2) ** Fraction(1, 2),
        5: ExactValue.from_integer(2),
    }
    ok = True
    for k in range(1, 6):
        verdict = growth_verdict(equal_growth_wheel(k))
        ok = ok and verdict.equal and verdict.lambda_exact == expected[k]
    grid_checked = 0
    for n in range(3, 18):
        for l1 in range(1, 7):
            for l2 in range(1, 7):
                formula = (
                    ExactValue.from_integer(4) ** Fraction(1, l1)
                    == ExactValue.from_integer(2 * (n - 1)) ** Fraction(1, l2)
                )
                verdict = check_suspended_path_condition(wheel_graph(n, l1, l2))
                ok = ok and (verdict.holds == formula)
                grid_checked += 1
    report(6, ok, f"H_1..H_5 equal with expected exact growth; wheel grid {grid_checked} cases match")


def test_acceptance_7_subdivision_law():
    ok = True
    details = []
    for g, name in ((complete_graph(4), "K4"), (k4_minus_edge(), "K4-e")):
        rho = cover_growth_rate(g)
        for m in (2, 3):
            err = abs(cover_growth_rate(subdivide(g, m)) ** m - rho)
            ok = ok and err <= 1e-7
            details.append(f"{name} m={m}: {err:.1e}")
    report(7, ok, ", ".join(details))


def test_acceptance_8_walk_count_oracle():
    rng = random.Random(8080)
    checked = 0
    ok = True
    for _ in range(20):
        g = random_low_growth_graph(rng)
        for e in range(g.dart_count):
            for length in range(13):
                if enumerate_nb_walks(g, e, length) != count_nb_walks(g, e, length):
                    ok = False
                checked += 1
    report(8, ok, f"{checked} (dart, length) pairs equal across both methods on 20 graphs")


def test_acceptance_9_log_convexity():
    k4e = k4_minus_edge()
    k4 = complete_graph(4)
    _, lam = average_growth_rate(k4e)
    rho = cover_growth_rate(k4e)
    ok = True
    middle_gap = None
    for t in [x / 10 for x in range(1, 10)]:
        value = perron(interpolation_matrix(k4e, t)).value
        ok = ok and (value >= lam**t - 1e-9) and (value <= rho**t + 1e-9)
        if t == 0.5:
            middle_gap = rho**0.5 - value
    ok = ok and middle_gap > 1e-4
    for t in [x / 10 for x in range(1, 10)]:
        ok = ok and abs(perron(interpolation_matrix(k4, t)).value - 2**t) <= 1e-9
    report(9, ok, f"bounds hold on K4-e (middle gap {middle_gap:.2e}); equality on K4")


def test_acceptance_10_variance_dichotomy():
    rng = random.Random(9090)
    corpus = [random_nb_irreducible(rng, max_vertices=10) for _ in range(40)]
    corpus += [
        complete_graph(4),
        complete_graph(5),
        complete_bipartite_graph(2, 3),
        complete_bipartite_graph(3, 4),
        equal_growth_wheel(2),
        equal_growth_wheel(3),
        wheel_graph(5, 2, 3),
        subdivide(complete_graph(4), 3),
        subdivide(complete_bipartite_graph(2, 3), 2),
        random_regular(rng, degree=4),
    ]
    equal_count = strict_count = 0
    ok = True
    for g in corpus:
        verdict = growth_verdict(g, rel_tol=1e-12)
        limit = asymptotic_variance(g)
        if verdict.equal:
            equal_count += 1
            ok = ok and limit == 0.0
        else:
            strict_count += 1
            ok = ok and limit > 1e-6
    ok = ok and equal_count >= 10 and strict_count >= 10
    report(10, ok, f"{equal_count} equal graphs at 0, {strict_count} strict graphs above 1e-6")
