import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from nbrw import (
    CapabilityError,
    ExactValue,
    PreconditionError,
    build_graph,
    check_cycle_condition,
    complete_bipartite_graph,
    complete_graph,
    distribution_csv,
    equal_growth_wheel,
    exact_bit_distribution,
    format_graph_text,
    histogram_csv,
    parse_graph_text,
    run_walks,
    subdivide,
    tracked_degrees,
    truncated_variance,
    walks,
    wheel_graph,
)
from nbrw import _kernels as kernels
from nbrw._kernels import available_engines
from nbrw._text import parse_text
from nbrw.graph import HALF_LOOP, WHOLE_LOOP

from _corpus import graphs_with_loops, random_nb_irreducible, scalar_walk_counts
from _reference_criteria import potential
from _reference_walks import dart_transitions, sample_walk, total_variation


def brute_force_distribution(g, length):
    """Enumerate all walks with exact probabilities; oracle for the DP."""
    degrees = tracked_degrees(g)
    index_of = {v: i for i, v in enumerate(degrees)}
    out = {}

    def collect(dart, remaining, counts, prob):
        if remaining == 0:
            out[counts] = out.get(counts, Fraction(0)) + prob
            return
        succ = dart_transitions(g, dart)
        d = len(succ)
        if d > 1:
            bumped = list(counts)
            bumped[index_of[d]] += 1
            counts = tuple(bumped)
        for f in succ:
            collect(f, remaining - 1, counts, prob / d)

    start = Fraction(1, g.dart_count)
    for e in range(g.dart_count):
        collect(e, length, tuple([0] * len(degrees)), start)
    return out


def law_inputs(g):
    """``g`` read back from its text as a ``Graph`` and as the parsed edge
    list that ``nbrw pdf`` passes; the exact law must not tell them apart."""
    text = format_graph_text(g)
    return parse_graph_text(text), parse_text(text)


def test_sample_walk_valid_transitions(k4e):
    w = sample_walk(k4e, 40, seed=5)
    assert len(w.darts) == 41
    for a, b in zip(w.darts, w.darts[1:]):
        assert b in dart_transitions(k4e, a)


def test_sample_walk_k4_bits_deterministic(k4):
    for length in (0, 1, 17):
        w = sample_walk(k4, length, seed=9, stream=4)
        assert w.bits == length  # every branching degree is 2


def test_sample_walk_k4e_l1_bits(k4e):
    values = [sample_walk(k4e, 1, seed=11, stream=s).bits for s in range(4000)]
    assert set(values) == {0.0, 1.0}
    # P[bits=1] = 6/10; binomial sd ~ 0.0077
    assert abs(sum(values) / len(values) - 0.6) < 0.03


def test_sample_walk_rejects_cycle():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(PreconditionError):
        sample_walk(c5, 3, seed=0)


def test_walk_tables_are_built_once_per_graph(monkeypatch):
    g = equal_growth_wheel(6)
    first = sample_walk(g, 50, seed=3, stream=2)
    tables = walks._tables(g)
    assert all(table.readonly for table in tables[:3])

    def rebuilt(*_):
        raise AssertionError("the walk tables were built again")

    monkeypatch.setattr(kernels, "walk_tables", rebuilt)
    assert sample_walk(g, 50, seed=3, stream=2) == first
    assert run_walks(g, 50, 3, seed=3).end_darts[2] == first.darts[-1]
    assert [bytes(t) for t in walks._tables(g)[:3]] == [bytes(t) for t in tables[:3]]


def test_run_walks_deterministic_across_workers(k4e):
    a = run_walks(k4e, 64, 3000, seed=42, workers=1)
    b = run_walks(k4e, 64, 3000, seed=42, workers=5)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.end_darts, b.end_darts)


def test_run_walks_matches_scalar_walks(k4e, monkeypatch):
    batch = run_walks(k4e, 33, 50, seed=13)
    for s in (0, 7, 49):
        w = sample_walk(k4e, 33, seed=13, stream=s)
        assert w.darts[-1] == batch.end_darts[s]
        high = sum(1 for d in w.darts[:-1] if k4e.out_degree(d) > 1)
        assert high == batch.counts[s, 0]
    # walks that end inside a suspended path, on every engine: 13 samples in
    # three chunks, from samples 0, 4 and 8
    monkeypatch.setattr(walks.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for g in [wheel_graph(5, 3, 12), *graphs_with_loops(random.Random(1313))]:
        for length in range(int(g.suspended_paths.length.max()) + 3):
            counts, ends = scalar_walk_counts(g, length, 13, range(13))
            for engine in available_engines():
                batch = run_walks(g, length, 13, seed=13, workers=3, engine=engine)
                assert np.array_equal(batch.counts, counts), (g, length, engine)
                assert np.array_equal(batch.end_darts, ends), (g, length, engine)


def test_estimate_bit_stats_needs_two_samples(k4e):
    with pytest.raises(PreconditionError):
        run_walks(k4e, 10, 1, seed=0).bit_stats()


def test_estimate_bit_stats_k4_zero_variance(k4):
    stats = run_walks(k4, 50, 500, seed=1).bit_stats()
    assert stats.mean_bits_per_step == 1.0
    assert stats.variance_of_bits == 0.0
    assert stats.standard_error_of_mean == 0.0


def test_estimate_bit_stats_k4e(k4e):
    stats = run_walks(k4e, 400, 20_000, seed=2, workers=2).bit_stats()
    assert abs(stats.mean_bits_per_step - 0.6) < 0.005
    assert abs(stats.variance_of_bits / 400 - 0.016) < 0.004
    assert stats.sample_count == 20_000


def test_bit_stats_exact_where_int64_moments_would_overflow(k4e):
    # four samples of counts near 3e9: n * max count**2 > 2**63, so the
    # second moment no longer fits int64; the deviations 0, 2, 4, 6 have a
    # sample variance of 20/3 (one bit per count, outdeg 2)
    base = 3 * 10**9
    for start in (base, 0):  # beyond the bound, and the same deviations within it
        counts = np.array([[start], [start + 2], [start + 4], [start + 6]], dtype=np.int64)
        batch = walks.WalkBatch(k4e.dart_count, 10**10, 0, (2,), counts, np.zeros(4, dtype=np.int32), engine="python")
        stats = batch.bit_stats()
        assert stats.variance_of_bits == 20 / 3
        assert stats.mean_bits_per_step == (start + 3) / 10**10
        assert stats.standard_error_of_mean == math.sqrt(20 / 3 / 4) / 10**10


def test_tracked_degrees_are_the_branching_out_degrees():
    rng = random.Random(1313)
    corpus = [random_nb_irreducible(rng) for _ in range(40)] + graphs_with_loops(rng) + [
        half_loop_barbell(),
        build_graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2, WHOLE_LOOP)]),
        equal_growth_wheel(8),
    ]
    for g in corpus:
        out_degrees = {g.out_degree(e) for e in range(g.dart_count)}
        degrees = tracked_degrees(g)
        assert degrees == tuple(sorted(out_degrees - {0, 1})), g
        assert all(type(d) is int for d in degrees)


def test_marginal_stationarity_chi_squared(k4e):
    # the dart occupied at a fixed step must stay uniform
    batch = run_walks(k4e, 7, 100_000, seed=3, workers=4)
    observed = batch.end_dart_counts()
    _, p_value = scipy.stats.chisquare(observed)
    assert p_value > 1e-6


def test_exact_distribution_k4e_l1(k4e):
    for g in law_inputs(k4e):
        dist = exact_bit_distribution(g, 1)
        assert dist.probabilities == {(0,): Fraction(2, 5), (1,): Fraction(3, 5)}


def test_exact_distribution_against_enumeration(k4e):
    for length in (0, 1, 2, 3, 5, 7):
        brute = brute_force_distribution(k4e, length)
        for g in law_inputs(k4e):
            assert exact_bit_distribution(g, length).probabilities == brute
    # one graph with a half-loop and one with a whole-loop; the other two have three branching degrees
    loop_graphs = [g for g in graphs_with_loops(random.Random(1919)) if len(tracked_degrees(g)) <= 2]
    assert {kind for g in loop_graphs for _, _, kind in g.edges} >= {HALF_LOOP, WHOLE_LOOP}
    for g in loop_graphs:
        for length in (0, 1, 2, 4):
            brute = brute_force_distribution(g, length)
            for h in law_inputs(g):
                assert exact_bit_distribution(h, length).probabilities == brute


def test_exact_distribution_two_degrees_against_enumeration():
    g = complete_bipartite_graph(2, 3)  # branching degrees {2} only; need {2,3}
    assert tracked_degrees(g) == (2,)
    h = wheel_graph(4, 1, 2)  # hub degree 4, junctions 3: degrees {2,3}
    assert tracked_degrees(h) == (2, 3)
    for length in (0, 1, 2, 4, 5):
        brute = brute_force_distribution(h, length)
        for g in law_inputs(h):
            assert exact_bit_distribution(g, length).probabilities == brute


def test_exact_distribution_point_mass_on_k4(k4):
    for length in (0, 3, 20):
        for g in law_inputs(k4):
            assert exact_bit_distribution(g, length).probabilities == {(length,): Fraction(1)}


def test_exact_distribution_mean_law_on_corpus():
    rng = random.Random(1717)
    checked = 0
    while checked < 15:
        g = random_nb_irreducible(rng, max_vertices=8)
        if len(tracked_degrees(g)) > 2:
            continue
        checked += 1
        length = rng.randint(1, 12)
        for h in law_inputs(g):
            dist = exact_bit_distribution(h, length)
            assert sum(dist.probabilities.values()) == 1
            darts_per_degree = {
                v: sum(1 for e in range(g.dart_count) if g.out_degree(e) == v)
                for v in dist.degrees
            }
            for v, expected_count in zip(dist.degrees, dist.expected_counts()):
                assert expected_count == Fraction(length * darts_per_degree[v], g.dart_count)


def test_exact_distribution_rejects_three_degrees():
    g = wheel_graph(5, 1, 1)  # hub degree 5, junctions degree 3: branching {2, 4}
    assert tracked_degrees(g) == (2, 4)
    h = build_graph(
        6,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)],
    )
    assert len(tracked_degrees(h)) > 2
    for g in law_inputs(h):
        with pytest.raises(CapabilityError):
            exact_bit_distribution(g, 3)


def test_exact_law_is_the_same_from_both_table_builders(monkeypatch):
    # the law reads the tables of the builder that get_kernel selects: in C,
    # or in numpy under NBRW_PURE_PYTHON, on a Graph and on an edge list alike
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    rng = random.Random(2323)
    corpus = [wheel_graph(5, 2, 3), wheel_graph(5, 3, 2), half_loop_barbell()]
    corpus += [random_nb_irreducible(rng, max_vertices=8, half_loop_prob=0.5) for _ in range(30)]
    corpus += graphs_with_loops(rng, 8)
    corpus = [g for g in corpus if len(tracked_degrees(g)) <= 2]
    kinds = {kind for g in corpus for *_, kind in g.edges}
    assert {HALF_LOOP, WHOLE_LOOP} <= kinds and len(corpus) >= 25, len(corpus)

    def law(h, length, pure):
        if pure:
            monkeypatch.setenv("NBRW_PURE_PYTHON", "1")
        else:
            monkeypatch.delenv("NBRW_PURE_PYTHON", raising=False)
        return exact_bit_distribution(h, length)

    for g in corpus:
        for length in (0, 1, 3, 9):
            # a fresh Graph per builder, as a Graph keeps the tables it built first
            laws = [law(x, length, pure) for pure in (False, True) for x in law_inputs(g)]
            assert laws[1:] == laws[:1] * 3, (g, length)

    # the refusals, in order: irreducibility, then the length, then the degrees
    three = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]
    leafy, h = build_graph(7, three + [(0, 6)]), build_graph(6, three)
    for pure in (False, True):
        for x in law_inputs(leafy):
            with pytest.raises(PreconditionError, match="^requires NB-irreducibility, got min_degree_below_2$"):
                law(x, -1, pure)
        for x in law_inputs(h):
            with pytest.raises(ValueError, match="^length must be non-negative$"):
                law(x, -1, pure)
            with pytest.raises(CapabilityError, match="graph has 3: \\(2, 3, 4\\)$"):
                law(x, 3, pure)


@pytest.mark.parametrize(
    "build, lengths",
    [
        (lambda: wheel_graph(5, 2, 3), (1, 7, 40, 300)),
        (lambda: equal_growth_wheel(4), (1, 7, 40)),
        (lambda: equal_growth_wheel(5), (1, 7, 40)),
        (lambda: subdivide(complete_graph(5), 3), (1, 7, 40)),  # each edge subdivided twice
    ],
    ids=["w523", "hk4", "hk5", "k5-subdivided"],
)
def test_exact_law_telescopes_on_equal_graphs(build, lengths):
    # equal rates: phi(f) = phi(e) * lambda / outdeg(e) on every transition,
    # so a walk e_0..e_l has prod outdeg(e_i) = lambda**l * phi(e_0) / phi(e_l)
    g = build()
    cycle = check_cycle_condition(g)
    assert cycle.holds
    potentials = set(potential(cycle).values())
    ratios = {a / b for a in potentials for b in potentials}
    for length in lengths:
        laws = [exact_bit_distribution(h, length) for h in law_inputs(g)]
        dist = laws[0]
        assert laws[1] == dist
        scale = cycle.lambda_exact**length
        for counts in dist.probabilities:
            product = ExactValue()
            for d, c in zip(dist.degrees, counts):
                product = product * ExactValue.from_integer(d) ** c
            assert product / scale in ratios, (length, counts)
        assert len(distribution_csv(dist).splitlines()) - 1 <= len(potentials) ** 2


def test_exact_law_keeps_only_reachable_states():
    # equal rates keep the bit total within O(1) of its mean, so only a few
    # count vectors per dart are reachable, not (l + 1)**2
    g = wheel_graph(5, 2, 3)
    tracemalloc.start()
    try:
        dist = exact_bit_distribution(g, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dist.probabilities.values()) == 1
    assert peak < 10_000_000


def test_exact_distribution_variance_matches_truncated(k4e):
    for length in (1, 10, 200):
        dist = exact_bit_distribution(k4e, length)
        assert abs(dist.variance_bits() - truncated_variance(k4e, length) * length) <= 1e-9


def test_monte_carlo_total_variation(k4e):
    length, samples = 300, 40_000
    batch = run_walks(k4e, length, samples, seed=4, workers=4)
    dist = exact_bit_distribution(k4e, length)
    tv = total_variation(dist, batch.histogram(), samples)
    assert tv <= 0.02


def test_variance_dichotomy_trend(k4e, w523):
    lengths = (200, 400, 800)
    strict_values = {}
    for length in lengths:
        stats = run_walks(k4e, length, 20_000, seed=6, workers=4).bit_stats()
        strict_values[length] = stats.variance_of_bits / length
    center = sum(strict_values.values()) / len(strict_values)
    for length, value in strict_values.items():
        assert abs(value - center) <= 0.15 * center, strict_values

    reference = run_walks(w523, 100, 20_000, seed=7, workers=4).bit_stats().variance_of_bits
    for length in lengths:
        bounded = run_walks(w523, length, 20_000, seed=8, workers=4).bit_stats().variance_of_bits
        assert bounded <= reference * 1.5


def test_distribution_csv_format(k4e):
    text = distribution_csv(exact_bit_distribution(k4e, 5))
    lines = text.strip().splitlines()
    assert lines[0] == "bits_per_step,probability"
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == sorted(values)
    assert abs(sum(float(line.split(",")[1]) for line in lines[1:]) - 1.0) < 1e-9


def test_distribution_csv_merges_coinciding_bit_values():
    # degrees 2 and 4: counts (1, 1) and (3, 0) both consume three bits and
    # must land on a single row
    g = wheel_graph(5, 1, 2)
    assert tracked_degrees(g) == (2, 4)
    dist = exact_bit_distribution(g, 4)
    assert {(1, 1), (3, 0)} <= set(dist.probabilities)
    text = distribution_csv(dist)
    lines = text.strip().splitlines()[1:]
    values = [float(line.split(",")[0]) for line in lines]
    assert len(values) < len(dist.probabilities)  # merging happened
    assert len(values) == len(set(values))
    assert values == sorted(values)
    assert abs(sum(float(line.split(",")[1]) for line in lines) - 1.0) < 1e-9


def test_histogram_csv_deterministic(k4e):
    a = histogram_csv(run_walks(k4e, 50, 5000, seed=9, workers=2))
    b = histogram_csv(run_walks(k4e, 50, 5000, seed=9, workers=3))
    assert a == b
    assert a.startswith("bits_per_step,probability\n")


def test_engines_identical_when_both_present(k4e):
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    a = run_walks(k4e, 80, 4000, seed=10, engine="compiled")
    b = run_walks(k4e, 80, 4000, seed=10, engine="python")
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.end_darts, b.end_darts)


def half_loop_barbell():
    # half-loops at both ends of a doubled edge: 6 darts, degrees (3, 3)
    return build_graph(2, [(0, 1), (0, 1), (0, 0, HALF_LOOP), (1, 1, HALF_LOOP)])


def test_half_loop_graph_walks_and_distribution():
    g = half_loop_barbell()
    w = sample_walk(g, 30, seed=21)
    for a, b in zip(w.darts, w.darts[1:]):
        assert b in dart_transitions(g, a)
    batch = run_walks(g, 25, 4000, seed=22, workers=2)
    stats = batch.bit_stats()
    assert stats.mean_bits_per_step > 0
    for length in (0, 1, 2, 4, 6):
        brute = brute_force_distribution(g, length)
        for h in law_inputs(g):
            assert exact_bit_distribution(h, length).probabilities == brute


def test_half_loop_graph_engines_agree():
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    g = half_loop_barbell()
    a = run_walks(g, 40, 3000, seed=23, engine="compiled")
    b = run_walks(g, 40, 3000, seed=23, engine="python")
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.end_darts, b.end_darts)


def test_hub_graph_walks_allocate_no_arc_table():
    # hk10: 26,650 darts but 1.08 M transition arcs, almost all at its hub.
    # Walks, the exact DP and the truncated variance read the O(darts) vertex
    # tables; a per-arc successor table peaked at 28-73 MB in these calls.
    g = equal_growth_wheel(10)
    assert g.dart_count == 26_650
    assert int((g.degrees * (g.degrees - 1)).sum()) == 1_078_300
    assert g.irreducibility.value == "ok"  # computed before tracing
    for call in (
        lambda: run_walks(g, 10, 100, seed=1),
        lambda: exact_bit_distribution(g, 2),
        lambda: truncated_variance(g, 4),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000
