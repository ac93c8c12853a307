"""The improving-cycle search, a step in the proof of the path criterion:
induced subgraphs rebuilt per step, a set-based 2-core, a dict union-find
over components, ``ExactValue`` means, and Karp's (D + 1) x D table as the
exact fallback.

The package does not run this search, so the lemma behind it (a strict
graph has a non-backtracking cycle whose mean of g(P) is above Lambda) is
tested on it, in ``test_conditions.py``, through both of its endings:
peeling and the maximum-mean fallback.  Kept verbatim apart from imports and from
the dart-to-edge numbering, which it reads off the numpy reference
:class:`_reference_darts.DartArrays` now that ``Graph`` has none.  The
exact :func:`geometric_mean` that the means are taken with moved here
verbatim from ``nbrw.exact``, and :func:`path_growth_function`, the one
``f`` that the search is run with, moved here verbatim from
``nbrw.conditions``; neither module needs them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from nbrw.conditions import ConsistencyError, suspended_path_decomposition
from nbrw.exact import ExactValue
from nbrw.graph import Graph, build_graph
from nbrw.operators import require_nb_irreducible

from _reference_darts import DartArrays


def path_growth_function(g: Graph) -> list[ExactValue]:
    """Per-dart balance value of the suspended path containing the dart."""
    values: list[Optional[ExactValue]] = [None] * g.dart_count
    for path in suspended_path_decomposition(g):
        for d in path.darts:
            values[d] = path.g_value
    return values  # type: ignore[return-value]


def geometric_mean(values: list[ExactValue]) -> ExactValue:
    """Exact geometric mean of a non-empty list of exact values."""
    if not values:
        raise ValueError("geometric mean of empty list")
    product = ExactValue()
    for v in values:
        product = product * v
    return product ** Fraction(1, len(values))


def _induced_subgraph(g: Graph, edge_ids: set[int]) -> tuple[Graph, dict[int, int]]:
    """Graph restricted to the given edge ids, plus sub-dart -> original-dart map."""
    used_vertices = sorted({v for i in edge_ids for v in g.edges[i][:2]})
    vmap = {v: k for k, v in enumerate(used_vertices)}
    kept = sorted(edge_ids)
    edges = [(vmap[g.edges[i][0]], vmap[g.edges[i][1]], g.edges[i][2]) for i in kept]
    sub = build_graph(len(used_vertices), edges)
    # both dart tables list paired darts by edge, then half-loops by edge,
    # so the kept edges' darts of g appear in the sub-graph's dart order
    return sub, dict(enumerate(_darts_of_edges(g, edge_ids)))


def _prune_to_min_degree_two(g: Graph, edge_ids: set[int]) -> set[int]:
    """Drop edges at degree-deficient vertices until min degree >= 2."""
    edges = set(edge_ids)
    while edges:
        # a vertex's degree is the number of darts leaving it
        weak = np.bincount(g.dart_tail[_darts_of_edges(g, edges)], minlength=g.vertex_count) == 1
        if not weak.any():
            return edges
        edges = {i for i in edges if not (weak[g.edges[i][0]] or weak[g.edges[i][1]])}
    return edges


def _edge_components(g: Graph, edge_ids: set[int]) -> list[set[int]]:
    """The edges grouped by connected component (union-find over vertices),
    in the order of each component's smallest edge."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i in edge_ids:
        parent[find(g.edges[i][0])] = find(g.edges[i][1])
    components: dict[int, set[int]] = {}
    for i in sorted(edge_ids):
        components.setdefault(find(g.edges[i][0]), set()).add(i)
    return list(components.values())


def _darts_of_edges(g: Graph, edge_ids: set[int]) -> list[int]:
    return np.flatnonzero(np.isin(DartArrays(g.edges).dart_edge, list(edge_ids))).tolist()


def _trace_cycle(sub: Graph, dart_map: dict[int, int]) -> list[int]:
    """Follow unique continuations in an all-degree-two graph, from the
    smallest original dart, until the start dart repeats."""
    successor = sub.chain_successor.tolist()
    start = min(range(sub.dart_count), key=lambda d: dart_map[d])
    cycle = [start]
    while True:
        e = cycle[-1]
        if successor[e] < 0:
            raise ConsistencyError("cycle trace found a branching dart")
        if successor[e] == start:
            break
        cycle.append(successor[e])
        if len(cycle) > sub.dart_count:
            raise ConsistencyError("cycle trace did not close")
    return [dart_map[d] for d in cycle]


def _validate_path_function(g: Graph, f: list[ExactValue]) -> None:
    if len(f) != g.dart_count:
        raise ValueError("f must assign a value to every dart")
    for path in suspended_path_decomposition(g):
        values = {f[d] for d in path.darts} | {f[int(g.dart_reverse[d])] for d in path.darts}
        if len(values) != 1:
            raise ValueError("f must be constant on suspended paths and reversal-symmetric")


def find_improving_cycle(g: Graph, f: list[ExactValue]) -> list[int]:
    """Peel suspended paths until a cycle with above-average f remains.

    ``f`` must be constant on suspended paths and reversal-symmetric (the
    shape produced by :func:`path_growth_function`).  Repeatedly removes a
    suspended path whose geometric mean of ``f`` is at most the current
    subgraph's, keeps the connected component with the largest mean, and
    stops when only a cycle is left.  The returned non-backtracking cycle
    C satisfies, exactly,

        geometric_mean(f over C) >= geometric_mean(f over all darts),

    strictly when some suspended path of ``g`` falls strictly below the
    global mean.

    Removing a path whose endpoints coincide takes two incidences from its
    anchor vertex and can dangle part of the subgraph; the dangling chains
    are pruned, and a candidate is only accepted if the kept component's
    mean does not drop.  When no removal order can avoid losing ground
    this way (above-average darts stranded on a bridge), the guarantee is
    met by an exact maximum-mean cycle search on the transition digraph
    instead.
    """
    require_nb_irreducible(g)
    _validate_path_function(g, f)
    global_mean = geometric_mean(f)
    dart_edge = DartArrays(g.edges).dart_edge

    current: set[int] = set(range(len(g.edges)))
    current_mean = global_mean
    while True:
        sub, dart_map = _induced_subgraph(g, current)
        if int(sub.degrees.max()) <= 2:
            cycle = _trace_cycle(sub, dart_map)
            cycle_mean = geometric_mean([f[d] for d in cycle])
            if cycle_mean < global_mean:
                break
            return cycle

        paths = suspended_path_decomposition(sub)
        candidates = []
        for path in paths:
            orig = [dart_map[d] for d in path.darts]
            if geometric_mean([f[d] for d in orig]) <= current_mean:
                candidates.append((orig[0], orig))  # keyed by the leading dart
        candidates.sort()
        if not candidates:
            raise ConsistencyError("no suspended path at or below the current mean")

        chosen = None
        for _, orig in candidates:
            removed_edges = {int(dart_edge[d]) for d in orig}
            remaining = _prune_to_min_degree_two(g, current - removed_edges)
            best = _best_component(g, remaining, f)
            if best is None:
                continue
            best_edges, best_mean = best
            if best_mean >= current_mean:
                chosen = (best_edges, best_mean)
                break
        if chosen is None:
            break
        current, current_mean = chosen

    cycle = _max_mean_cycle(g, f)
    if geometric_mean([f[d] for d in cycle]) < global_mean:
        raise ConsistencyError("no cycle reaches the global mean")
    return cycle


def _max_mean_cycle(g: Graph, f: list[ExactValue]) -> list[int]:
    """Cycle of maximum geometric f-mean in the transition digraph.

    Exact dynamic program over walk lengths: best[k][v] is the largest
    f-product over k-arc walks from a fixed start to dart v (the arc
    leaving u contributes f[u]).  The max-mean value is
    max_v min_k (best[n][v] / best[k][v]) ** (1/(n-k)); a walk realizing
    best[n][v*] must contain a cycle, and its best embedded cycle attains
    the optimum.  All comparisons are exact.
    """
    n = g.dart_count
    offsets, flat = (a.tolist() for a in g.out_dart_table)
    head, reverse = g.dart_head.tolist(), g.dart_reverse.tolist()
    best: list[list[Optional[ExactValue]]] = [[None] * n for _ in range(n + 1)]
    parent: list[list[Optional[int]]] = [[None] * n for _ in range(n + 1)]
    best[0][0] = ExactValue.one()
    for k in range(1, n + 1):
        prev = best[k - 1]
        for u in range(n):
            du = prev[u]
            if du is None:
                continue
            through = du * f[u]
            for v in flat[offsets[head[u]]:offsets[head[u] + 1]]:
                if v == reverse[u]:
                    continue
                known = best[k][v]
                if known is None or through > known:
                    best[k][v] = through
                    parent[k][v] = u

    best_v = None
    best_mu: Optional[ExactValue] = None
    for v in range(n):
        if best[n][v] is None:
            continue
        worst: Optional[ExactValue] = None
        for k in range(n):
            if best[k][v] is None:
                continue
            mu = (best[n][v] / best[k][v]) ** Fraction(1, n - k)
            if worst is None or mu < worst:
                worst = mu
        if worst is not None and (best_mu is None or worst > best_mu):
            best_mu, best_v = worst, v
    if best_v is None:
        raise ConsistencyError("max-mean search found no closed walk")

    walk = [best_v]
    v, k = best_v, n
    while k > 0:
        v = parent[k][v]
        walk.append(v)
        k -= 1
    walk.reverse()

    cycles: list[list[int]] = []
    position: dict[int, int] = {}
    reduced: list[int] = []
    for node in walk:
        if node in position:
            start = position[node]
            cycles.append(reduced[start:])
            for dropped in reduced[start:]:
                del position[dropped]
            del reduced[start:]
        position[node] = len(reduced)
        reduced.append(node)
    if not cycles:
        raise ConsistencyError("max-mean walk contained no cycle")
    return max(cycles, key=lambda c: geometric_mean([f[d] for d in c]))  # the first of equals


def _best_component(
    g: Graph, edge_ids: set[int], f: list[ExactValue]
) -> tuple[set[int], ExactValue] | None:
    """Component with the largest exact mean; ties go to the smallest dart."""
    components = _edge_components(g, edge_ids)
    if not components:
        return None
    scored = []
    for comp in components:
        darts = _darts_of_edges(g, comp)
        scored.append((geometric_mean([f[d] for d in darts]), min(darts), comp))
    best_mean = max(mean for mean, _, _ in scored)
    ties = sorted((smallest, comp) for mean, smallest, comp in scored if mean == best_mean)
    return ties[0][1], best_mean
