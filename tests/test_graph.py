import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nbrw import (
    GraphError,
    GraphParseError,
    IrreducibilityVerdict,
    build_graph,
    format_graph_text,
    is_nb_irreducible,
    parse_graph_text,
)
from nbrw.graph import HALF_LOOP, NORMAL, WHOLE_LOOP
from nbrw._kernels import available_engines, fallback
from nbrw._text import cannot_connect, number_darts
from nbrw.cli import _graph_summary

from _corpus import graphs_with_loops, pairing_graph, random_nb_irreducible
from _reference_darts import DartArrays, degree_histogram
from _reference_walks import dart_transitions


def test_k4_minus_edge_construction(k4e):
    assert k4e.dart_count == 10
    assert list(k4e.degrees) == [3, 3, 2, 2]


def test_single_half_loop():
    g = build_graph(1, [(0, 0, HALF_LOOP)])
    assert g.dart_count == 1
    assert list(g.degrees) == [1]
    assert g.dart_reverse[0] == 0


def test_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.dart_count == 6
    assert list(g.degrees) == [2, 2, 2]


def test_whole_loop_darts():
    g = build_graph(1, [(0, 0, WHOLE_LOOP)])
    assert g.dart_count == 2
    assert list(g.degrees) == [2]
    assert g.dart_reverse[0] == 1


def test_normal_self_edge_becomes_whole_loop():
    g = build_graph(2, [(0, 0), (0, 1), (0, 1)])
    assert g.edges[0][2] == WHOLE_LOOP
    assert g.dart_count == 6
    assert list(g.degrees) == [4, 2]


def test_half_loop_indexed_after_paired_darts():
    g = build_graph(2, [(0, 0, HALF_LOOP), (0, 1), (1, 1, HALF_LOOP)])
    # paired darts first: edge (0,1) gets darts 0,1; half-loops get 2,3
    assert (g.dart_tail[0], g.dart_head[0]) == (0, 1)
    assert g.dart_tail[2] == g.dart_head[2] == 0
    assert g.dart_tail[3] == g.dart_head[3] == 1
    assert g.dart_reverse[2] == 2


def test_construction_errors():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1, HALF_LOOP)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1, WHOLE_LOOP)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1, "bogus")])


def test_graph_takes_only_a_checked_edge_list(k4e):
    from nbrw import Graph
    from nbrw._text import EdgeList

    assert Graph(EdgeList(k4e.vertex_count, list(k4e.edges))).edges == k4e.edges
    for args in ((4, list(k4e.edges)), ((4, list(k4e.edges)),)):
        with pytest.raises(TypeError, match="build_graph or parse_text"):
            Graph(*args)


@pytest.mark.parametrize("vertex_count", [-1, 2**22 + 1])
def test_build_graph_bounds_the_vertex_count(vertex_count):
    with pytest.raises(GraphError, match=f"^vertex count {vertex_count} is outside 0..4194304$"):
        build_graph(vertex_count, [])


def test_transitions_k4e(k4e):
    # dart 0 = (u1,u2); continuations leave u2 toward v1 and v2
    succ = dart_transitions(k4e, 0)
    assert len(succ) == 2
    assert all(k4e.dart_tail[f] == 1 for f in succ)
    assert k4e.dart_reverse[0] not in succ
    assert succ == sorted(succ)


def test_transitions_triangle_unique():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    for e in range(6):
        assert len(dart_transitions(g, e)) == 1


def test_half_loop_dart_has_no_self_transition():
    g = build_graph(1, [(0, 0, HALF_LOOP)])
    assert dart_transitions(g, 0) == []


def test_parallel_reverse_edge_is_legal_successor():
    # two parallel edges between 0 and 1 plus a path keeping things interesting
    g = build_graph(2, [(0, 1), (0, 1), (0, 0, WHOLE_LOOP)])
    # dart 0 = first (0,1); its reverse is dart 1; dart 3 = second (1,0) is legal
    succ = dart_transitions(g, 0)
    assert 1 not in succ
    assert 3 in succ


def test_dart_transitions_match_definition_on_corpus():
    """dart_transitions(g, e) is every f with tail(f) = head(e) and
    f != reverse(e), ascending, checked dart pair by dart pair; the walk
    kernels' first/skip lookup returns its j-th element for every j, and
    their anchor/dist rows give the first dart with outdeg other than 1
    reached along the single successors, and the number of steps to it."""
    rng = random.Random(303)
    graphs = [random_nb_irreducible(rng, max_vertices=10, half_loop_prob=0.5) for _ in range(150)]
    graphs += [
        build_graph(0, []),
        build_graph(1, [(0, 0, HALF_LOOP)]),
        build_graph(3, [(0, 1), (0, 1), (1, 1, WHOLE_LOOP), (2, 2, HALF_LOOP), (1, 2), (0, 0, HALF_LOOP)]),
    ]
    kinds = set()
    for g in graphs:
        kinds.update(kind for _, _, kind in g.edges)
        if len(set((min(a, b), max(a, b)) for a, b, _ in g.edges)) < len(g.edges):
            kinds.add("parallel")
        _, out_flat, (first, skip, outdeg, anchor, dist), _, _ = g._layout
        for e in range(g.dart_count):
            expected = [
                f for f in range(g.dart_count)
                if g.dart_tail[f] == g.dart_head[e] and f != g.dart_reverse[e]
            ]
            assert dart_transitions(g, e) == expected
            assert outdeg[e] == len(expected)
            for j in range(outdeg[e]):
                k = first[e] + j
                assert out_flat[k + (k >= skip[e])] == expected[j]
            end, steps = e, 0
            while len(dart_transitions(g, end)) == 1:
                end, steps = dart_transitions(g, end)[0], steps + 1
            assert (anchor[e], dist[e]) == (end, steps)
    assert kinds >= {HALF_LOOP, WHOLE_LOOP, "parallel"}


def test_out_degree_formula_holds_on_corpus():
    rng = random.Random(101)
    for _ in range(100):
        g = random_nb_irreducible(rng, max_vertices=12)
        for e in range(g.dart_count):
            assert len(dart_transitions(g, e)) == g.degrees[g.dart_head[e]] - 1


def test_reversal_involution_on_corpus():
    import numpy as np

    rng = random.Random(202)
    for _ in range(100):
        g = random_nb_irreducible(rng, max_vertices=12)
        assert int(g.degrees.sum()) == g.dart_count
        # tail incidences reproduce the degree sequence
        assert np.array_equal(np.bincount(g.dart_tail, minlength=g.vertex_count), g.degrees)
        for e in range(g.dart_count):
            r = int(g.dart_reverse[e])
            assert int(g.dart_reverse[r]) == e
            assert g.dart_tail[r] == g.dart_head[e]
            assert g.dart_head[r] == g.dart_tail[e]


def test_is_nb_irreducible_cases(k4e):
    assert is_nb_irreducible(k4e) is IrreducibilityVerdict.OK
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_nb_irreducible(c5) is IrreducibilityVerdict.IS_CYCLE
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_nb_irreducible(two_triangles) is IrreducibilityVerdict.NOT_CONNECTED
    path = build_graph(3, [(0, 1), (1, 2)])
    assert is_nb_irreducible(path) is IrreducibilityVerdict.MIN_DEGREE_BELOW_2
    # priority: disconnection reported before the degree defect
    mixed = build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert is_nb_irreducible(mixed) is IrreducibilityVerdict.NOT_CONNECTED
    for g in (k4e, c5, two_triangles, path, mixed):
        assert g.irreducibility is is_nb_irreducible(g)


def _components_by_search(g):
    """The vertex sets of the components, by plain depth-first search over the edge list."""
    neighbours = [[] for _ in range(g.vertex_count)]
    for a, b, _ in g.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    components = []
    for root in range(g.vertex_count):
        if any(root in c for c in components):
            continue
        seen, stack = {root}, [root]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(seen)
    return components


def _connected_by_search(g):
    return len(_components_by_search(g)) <= 1


def _seeded_corpus():
    """Irreducible graphs, split ones, long cycles and paths, and loops alone."""
    rng = random.Random(5151)
    graphs = [random_nb_irreducible(rng, half_loop_prob=0.5) for _ in range(100)]
    # random degree sequences with degree-0 and degree-1 vertices: often split
    graphs += [pairing_graph(rng, [rng.randint(0, 3) for _ in range(rng.randint(1, 12))], 0.3) for _ in range(200)]
    # long cycles and paths under a random vertex order
    for _ in range(40):
        n = rng.randint(2, 400)
        order = rng.sample(range(n), n)
        edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
        if rng.random() < 0.5:
            del edges[rng.randrange(n)]
        graphs.append(build_graph(n, rng.sample(edges, len(edges))))
    graphs += [
        build_graph(0, []),
        build_graph(1, []),
        build_graph(2, []),
        build_graph(1, [(0, 0, WHOLE_LOOP), (0, 0, HALF_LOOP)]),
        build_graph(2, [(0, 0, WHOLE_LOOP), (1, 1, HALF_LOOP)]),
        build_graph(3, [(0, 0, WHOLE_LOOP), (1, 1, WHOLE_LOOP), (2, 2, HALF_LOOP)]),
    ]
    return graphs


def test_is_connected_matches_search():
    graphs = _seeded_corpus()
    verdicts = [fallback._is_connected(g.vertex_count, g.dart_tail, g.dart_head) for g in graphs]
    assert verdicts == [_connected_by_search(g) for g in graphs]
    assert 50 <= sum(verdicts) <= len(graphs) - 50


def _numbering_corpus():
    """The seeded corpus, with isolated vertices beside some edges and the
    hostile header, which declares 2**22 vertices for one edge."""
    return _seeded_corpus() + [
        build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 2, HALF_LOOP), (0, 1)]),
        build_graph(5, [(4, 4, HALF_LOOP), (3, 3), (1, 3)]),
        parse_graph_text("nbgraph 4194304\ne 0 1\n"),
    ]


def test_dart_numbering_matches_the_numpy_reference():
    # half-loops, whole-loops, parallel edges, no edge and no vertex at all
    for g in _numbering_corpus():
        reference = DartArrays(g.edges)
        tail, paired = number_darts(g.edges)
        assert tail == reference.dart_tail.tolist(), g
        assert paired == 2 * sum(kind != HALF_LOOP for *_, kind in g.edges), g
        for name in ("dart_tail", "dart_head", "dart_reverse"):
            got, expected = getattr(g, name), getattr(reference, name)
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), (g, name)
        assert g.dart_count == reference.dart_count


def test_graph_summary_matches_the_numpy_reference():
    for g in _numbering_corpus():
        expected = {"vertices": g.vertex_count, "edges": len(g.edges), "darts": g.dart_count,
                    "degree_histogram": degree_histogram(g)}
        # analyze's two inputs: every vertex's degree, or the nonzero ones counted off the dart tails
        for degrees in (g.degrees.tolist(), Counter(number_darts(g.edges)[0]).values()):
            summary = _graph_summary(g.vertex_count, len(g.edges), degrees)
            assert json.dumps(summary) == json.dumps(expected), g  # the histogram's order too


def test_size_test_agrees_with_the_verdict():
    for g in _numbering_corpus():
        if cannot_connect(g.vertex_count, len(g.edges)):
            assert is_nb_irreducible(g) is IrreducibilityVerdict.NOT_CONNECTED, g
    assert cannot_connect(0, 0) and cannot_connect(4194304, 1) and cannot_connect(3, 1)
    assert not cannot_connect(1, 0) and not cannot_connect(3, 2)


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_V = IrreducibilityVerdict


@pytest.mark.parametrize(
    "vertex_count, edges, verdict",
    [
        (0, [], _V.NOT_CONNECTED),
        (5, K4 + [(0, 1)], _V.NOT_CONNECTED),  # an isolated vertex, with enough edges to pass the edge count
        (5, K4 + [(0, 4)], _V.MIN_DEGREE_BELOW_2),
        (5, [(i, (i + 1) % 5) for i in range(5)], _V.IS_CYCLE),
        (5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 0, HALF_LOOP)], _V.OK),
        (8, K4 + [(a + 4, b + 4) for a, b in K4], _V.NOT_CONNECTED),
        (1, [(0, 0)], _V.IS_CYCLE),
        (5, K4 + [(4, 4)], _V.NOT_CONNECTED),
    ],
    ids=["empty", "isolated-vertex", "leaf", "cycle", "cycle-half-loop", "two-components", "whole-loop",
         "whole-loop-apart"],
)
def test_list_irreducibility_matches_the_graph_check_on_named_cases(vertex_count, edges, verdict):
    g = build_graph(vertex_count, edges)
    assert is_nb_irreducible(g) is verdict
    assert _compiled_verdict(g) is verdict


def test_list_irreducibility_matches_the_graph_check_on_the_corpus():
    # the C check on the edge list must agree with the numpy check everywhere
    graphs = _seeded_corpus() + graphs_with_loops(random.Random(6161))
    verdicts = [is_nb_irreducible(g) for g in graphs]
    assert [_compiled_verdict(g) for g in graphs] == verdicts
    assert set(verdicts) == set(IrreducibilityVerdict)


def _compiled_verdict(g):
    """The verdict of the compiled kernel's table builder, from each dart's tail."""
    if "compiled" not in available_engines():
        pytest.skip("compiled kernel not built")
    from nbrw._kernels._walk import walk_tables

    paired = 2 * sum(kind != HALF_LOOP for *_, kind in g.edges)
    return IrreducibilityVerdict(walk_tables(g.vertex_count, paired, g.dart_tail)[0])


def test_suspended_path_layout_invariants():
    graphs = _seeded_corpus() + graphs_with_loops(random.Random(6161))
    laid_out = refused = self_reversed = parallel = 0
    for g in graphs:
        if any(all(g.degrees[v] == 2 for v in c) for c in _components_by_search(g)):
            refused += 1
            with pytest.raises(GraphError, match="the graph has a cycle component"):
                g.suspended_paths
            continue
        laid_out += 1
        p, n = g.suspended_paths, len(g.suspended_paths.last)
        assert np.array_equal(p.last, np.flatnonzero(g.out_degree_vector() != 1))
        assert np.array_equal(p.reverse[p.reverse], np.arange(n))
        assert np.array_equal(p.length[p.reverse], p.length)
        assert np.array_equal(p.path[p.last], np.arange(n))
        assert np.array_equal(p.anchor, p.last[p.path])
        # dist drops by 1 along the one successor, within one path, and is 0 at the last dart
        chain = np.flatnonzero(g.chain_successor >= 0)
        assert np.array_equal(p.dist[chain], p.dist[g.chain_successor[chain]] + 1)
        assert np.array_equal(p.path[chain], p.path[g.chain_successor[chain]])
        assert not p.dist[p.last].any()
        # path i has length[i] darts and begins at rev(last[reverse[i]])
        assert np.array_equal(np.bincount(p.path, minlength=n), p.length)
        first = g.dart_reverse[p.last[p.reverse]]
        assert np.array_equal(p.path[first], np.arange(n))
        assert np.array_equal(p.dist[first], p.length - 1)
        branching = np.flatnonzero(g.degrees != 2)
        assert p.vertex_count == len(branching)
        assert np.array_equal(branching[p.vertex], g.dart_head[p.last])
        # a path through a half-loop holds its own reverse
        halves = np.flatnonzero(g.dart_reverse == np.arange(g.dart_count))
        assert np.array_equal(p.reverse[p.path[halves]], p.path[halves])
        self_reversed += int((g.degrees[g.dart_tail[halves]] == 2).any())
        normal = [tuple(sorted((a, b))) for a, b, kind in g.edges if kind == NORMAL]
        parallel += len(set(normal)) < len(normal)
    assert laid_out >= 250 and refused >= 50 and self_reversed >= 20 and parallel >= 100


@pytest.mark.parametrize(
    "vertex_count, edges",
    [(3, [(0, 1), (1, 2), (2, 0)]), (7, K4 + [(4, 5), (5, 6), (6, 4)])],
    ids=["triangle", "triangle-beside-k4"],
)
def test_suspended_paths_refuse_a_cycle_component(vertex_count, edges):
    with pytest.raises(GraphError, match="the graph has a cycle component"):
        build_graph(vertex_count, edges).suspended_paths


def test_text_format_round_trip(k4e):
    text = format_graph_text(k4e, comment="round trip")
    g = parse_graph_text(text)
    assert g.edges == k4e.edges
    assert g.vertex_count == k4e.vertex_count


def test_text_format_loops():
    g = build_graph(2, [(0, 0, WHOLE_LOOP), (0, 1), (1, 1, HALF_LOOP)])
    text = format_graph_text(g)
    assert "e 0 0" in text and "hl 1" in text
    back = parse_graph_text(text)
    assert back.edges == g.edges


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("nbgraph 3\ne 0 1\nwat\n")
    assert err.value.line_number == 3
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("# comment\nnot-a-header 3\n")
    assert err.value.line_number == 2
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("nbgraph 2\ne 0 5\n")
    assert err.value.line_number == 2
    with pytest.raises(GraphParseError):
        parse_graph_text("# only comments\n")


def test_parse_large_header_reports_edge_line():
    # a large declared vertex count must not make each edge line costly
    lines = ["nbgraph 2000000"] + [f"e {i} {i + 1}" for i in range(2000)] + ["e 0 2000000"]
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("\n".join(lines) + "\n")
    assert err.value.line_number == 2002
    assert "edge endpoint out of range: (0, 2000000)" in str(err.value)


@pytest.mark.parametrize("header", ["nbgraph 1000000000", "nbgraph -1"])
def test_parse_rejects_vertex_count_outside_bound_at_header(header):
    # nbgraph 1000000000 would otherwise ask for about 15 GB of dart tables
    tracemalloc.start()
    try:
        with pytest.raises(GraphParseError) as err:
            parse_graph_text(header + "\ne 0 1\ne 1 2\ne 2 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line_number == 1
    assert peak < 1_000_000


def test_large_header_irreducibility_allocates_nothing_per_vertex():
    # fewer than V - 1 edges cannot connect V vertices; no vertex labels are built
    g = parse_graph_text("nbgraph 1000000\ne 0 1\ne 1 2\ne 2 0\n")
    tracemalloc.start()
    try:
        verdict = g.irreducibility
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is IrreducibilityVerdict.NOT_CONNECTED
    assert peak < 1_000_000


def test_parse_ignores_comments_and_blanks():
    g = parse_graph_text("# hi\n\nnbgraph 3\n# mid\ne 0 1\ne 1 2\ne 2 0\n")
    assert g.dart_count == 6
