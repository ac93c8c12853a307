"""Exact decision of whether the covering-tree growth rate equals the
average growth rate.

Two equivalent combinatorial criteria are implemented, both decided in
exact prime-exponent arithmetic (no floating point anywhere in a verdict):

* every suspended path P must satisfy outdeg(P) * indeg(P) = L**(2|P|),
  where L is the average growth rate;
* every non-backtracking cycle C must satisfy
  prod(outdeg(e) for e in C) = L**|C|.

The cycle criterion is decided through a potential function on darts: a
spanning tree of the dart-transition digraph fixes candidate potentials,
and every remaining transition either confirms them (certificate) or folds
into an explicit violating cycle (counterexample).

Both run on integer vectors: log outdeg(e) and D log L (D darts) are
exponent vectors over the few primes dividing the degrees, so each
criterion is one vectorised integer comparison over all paths or arcs.
``ExactValue`` appears only in what is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .exact import ExactValue, factorize, geometric_mean
from .graph import Graph, SuspendedPaths, build_graph
from .operators import (
    PerronResult,
    PreconditionError,
    nb_perron,
    require_nb_irreducible,
)


class ConsistencyError(RuntimeError):
    """The two exact checkers disagreed; indicates an implementation bug."""


# Potentials and balances are bounded before any is computed; a graph whose
# bound exceeds int64 runs the same code on Python ints (dtype=object).
_INT64_BOUND = 2**62


@dataclass(frozen=True)
class _Exponents:
    """log outdeg(e) and log lambda as integer vectors over ``primes``.

    ``rows[e]`` holds the prime exponents of outdeg(e) and ``total`` their
    sum over all darts, so lambda = prod(p ** (total_p / dart_count)).
    """

    primes: tuple[int, ...]
    rows: np.ndarray
    total: np.ndarray


def _exponents(g: Graph) -> _Exponents:
    """The graph's exponent table, computed once per (immutable) graph."""
    if not hasattr(g, "_exponent_table"):
        values, index = np.unique(g.out_degree_vector(), return_inverse=True)
        factors = [factorize(int(v)) for v in values]
        primes = tuple(sorted({p for f in factors for p in f}))
        table = np.array([[f.get(p, 0) for p in primes] for f in factors], dtype=np.int64)
        d = g.dart_count
        # |potential| <= d * max|total - d * row|, balances <= 2 d (d + 1) max row
        if 4 * d * (d + 1) * int(table.max(initial=0)) >= _INT64_BOUND:
            table = table.astype(object)
        total = np.bincount(index, minlength=len(values)) @ table
        g._exponent_table = _Exponents(primes, table[index], total)
    return g._exponent_table


def average_growth_rate(g: Graph) -> tuple[ExactValue, float]:
    """Geometric mean of outdeg over all darts, exact plus float.

    This is the growth rate the walk's stationary distribution predicts:
    prod_e outdeg(e) ** (1/dart_count).
    """
    if g.vertex_count == 0 or int(g.degrees.min()) < 2:
        raise PreconditionError("average growth rate requires minimum degree >= 2")
    ex = _exponents(g)
    exact = ExactValue({p: Fraction(int(t), g.dart_count) for p, t in zip(ex.primes, ex.total)})
    return exact, float(exact)


def _lambda(g: Graph) -> ExactValue:
    """Exact average growth rate, computed once per (immutable) graph."""
    if not hasattr(g, "_average_growth_rate"):
        g._average_growth_rate = average_growth_rate(g)[0]
    return g._average_growth_rate


@dataclass(frozen=True)
class SuspendedPath:
    """Maximal run of darts whose interior vertices all have degree two.

    ``darts`` is ordered along the walk; ``in_degree`` is indeg of the
    first dart, ``out_degree`` is outdeg of the last, and ``g_value`` is
    the balance value (out_degree * in_degree) ** (1 / (2 length)).
    """

    darts: tuple[int, ...]
    in_degree: int
    out_degree: int

    @property
    def length(self) -> int:
        return len(self.darts)

    @cached_property
    def g_value(self) -> ExactValue:
        base = ExactValue.from_integer(self.out_degree) * ExactValue.from_integer(self.in_degree)
        return base ** Fraction(1, 2 * self.length)


def _path(g: Graph, paths: SuspendedPaths, i: int) -> SuspendedPath:
    """Path i of the graph's path layout."""
    darts = paths.order[paths.start[i]:paths.start[i] + paths.length[i]].tolist()
    return SuspendedPath(darts=tuple(darts), in_degree=g.in_degree(darts[0]), out_degree=g.out_degree(darts[-1]))


def suspended_path_decomposition(g: Graph) -> list[SuspendedPath]:
    """Partition all darts into suspended paths.

    Paths start at darts with indeg > 1, extend while outdeg stays 1, and
    are returned sorted by their smallest contained dart index.
    """
    require_nb_irreducible(g)
    paths = g.suspended_paths
    return [_path(g, paths, i) for i in np.argsort(paths.smallest).tolist()]


@dataclass(frozen=True)
class _Potential:
    """phi(d) = prod_p p ** (rows[d, p] / scale), as integer exponent rows."""

    primes: tuple[int, ...]
    scale: int
    rows: np.ndarray

    def as_pairs(self) -> dict[str, list[list[int]]]:
        """``{dart: [[prime, num, den], ...]}``, exponents in lowest terms."""
        common = np.gcd(self.rows, self.scale)
        nums, dens = (self.rows // common).tolist(), (self.scale // common).tolist()
        pairs = [[[p, n, m] for p, n, m in zip(self.primes, num, den) if n] for num, den in zip(nums, dens)]
        return dict(zip(map(str, range(len(pairs))), pairs))

    def log(self) -> np.ndarray:
        """Natural log of phi, in floating point."""
        logs = np.log(np.asarray(self.primes, dtype=np.float64))
        return np.asarray(self.rows @ logs, dtype=np.float64) / self.scale


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one exact criterion.

    ``witness`` is a potential certificate (dart -> ExactValue) when the
    cycle criterion holds, a violating :class:`SuspendedPath`, or a
    violating cycle as a dart tuple.  The path criterion carries no
    certificate object when it holds.  The potential is kept as integer
    exponent rows (``phi``); the ``ExactValue`` map is built when first read.
    """

    holds: bool
    lambda_exact: ExactValue
    witness_path: Optional[SuspendedPath] = None
    witness_cycle: Optional[tuple[int, ...]] = None
    phi: Optional[_Potential] = field(default=None, compare=False, repr=False)

    @cached_property
    def potential(self) -> Optional[dict[int, ExactValue]]:
        if self.phi is None:
            return None
        scale = self.phi.scale
        return {
            d: ExactValue({p: Fraction(x, scale) for p, x in zip(self.phi.primes, row)})
            for d, row in enumerate(self.phi.rows.tolist())
        }

    def to_json(self) -> dict:
        payload = {
            "holds": self.holds,
            "lambda": {"float": float(self.lambda_exact), "exact": self.lambda_exact.as_pairs()},
        }
        if self.witness_path is not None:
            payload["witness"] = {"type": "path", "darts": list(self.witness_path.darts)}
        elif self.witness_cycle is not None:
            payload["witness"] = {"type": "cycle", "darts": list(self.witness_cycle)}
        elif self.phi is not None:
            payload["witness"] = {"type": "potential", "darts": [], "phi": self.phi.as_pairs()}
        else:
            payload["witness"] = None
        return payload


def check_suspended_path_condition(g: Graph) -> ConditionVerdict:
    """Exact test of outdeg(P) * indeg(P) = L**(2|P|) for every path.

    In exponents scaled by D: D (v(outdeg P) + v(indeg P)) = 2 |P| total,
    for all paths at once; the witness is the violating path with the
    smallest dart.
    """
    require_nb_irreducible(g)
    lam = _lambda(g)
    ex = _exponents(g)
    paths = g.suspended_paths
    first = paths.order[paths.start]
    last = paths.order[paths.start + paths.length - 1]
    # indeg of a dart is outdeg of its reverse
    balance = g.dart_count * (ex.rows[last] + ex.rows[g.dart_reverse[first]])
    balance -= (2 * paths.length)[:, None] * ex.total
    bad = np.flatnonzero((balance != 0).any(axis=1))
    if bad.size:
        worst = int(bad[np.argmin(paths.smallest[bad])])
        return ConditionVerdict(holds=False, lambda_exact=lam, witness_path=_path(g, paths, worst))
    return ConditionVerdict(holds=True, lambda_exact=lam)


def _bfs(g: Graph, root: int, target: Optional[int] = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first search of the transition digraph from ``root``.

    Returns each dart's parent, its first discoverer in queue order (-1 at
    the root and at undiscovered darts), and the darts of each level in
    queue order; with a ``target`` it stops at the level that finds it.
    The successors of e are the darts leaving head(e) except rev(e), so
    only the first two arrivals at a vertex discover anything: the first
    every dart leaving it but the reverse of its own arrival dart, the
    next one, at the same or a later level, that reverse.
    """
    d, v = g.dart_count, g.vertex_count
    head, rev = g.dart_head, g.dart_reverse
    offsets, flat = g.out_dart_table
    parent = np.full(d, -1, dtype=np.int64)
    seen = np.zeros(d, dtype=bool)
    seen[root] = True
    first_arrival = np.full(v, -1, dtype=np.int64)
    level = np.array([root], dtype=np.int64)
    levels = [level]
    while target is None or not seen[target]:
        # the first and second arrival at each head vertex of this level
        level_heads = head[level]
        by_head = np.argsort(level_heads, kind="stable")
        heads = level_heads[by_head]
        lead = np.ones(len(heads), dtype=bool)
        lead[1:] = heads[1:] != heads[:-1]
        group = np.cumsum(lead) - 1
        verts, first = heads[lead], by_head[lead]
        second = np.full(len(verts), -1, dtype=np.int64)
        follow = np.flatnonzero(~lead & np.append(False, lead[:-1]))
        second[group[follow]] = by_head[follow]

        known = first_arrival[verts] >= 0
        new = ~known
        arrival = level[first[new]]
        first_arrival[verts[new]] = arrival
        lo = offsets[verts[new]]
        count = offsets[verts[new] + 1] - lo
        fan = flat[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
        fan_owner = np.repeat(first[new], count)
        keep = fan != np.repeat(rev[arrival], count)
        has_second = second[new] >= 0
        candidates = np.concatenate(
            (fan[keep], rev[arrival[has_second]], rev[first_arrival[verts[known]]])
        )
        owners = np.concatenate((fan_owner[keep], second[new][has_second], first[known]))
        fresh = ~seen[candidates]
        key = np.sort(owners[fresh] * d + candidates[fresh])
        level_darts = key % d
        if not len(level_darts):
            break
        parent[level_darts] = level[key // d]
        seen[level_darts] = True
        level = level_darts
        levels.append(level)
    return parent, levels


def _bfs_path(g: Graph, source: int, target: int) -> list[int]:
    """Shortest dart sequence source..target along transitions."""
    parent, _ = _bfs(g, source, target)
    if target != source and parent[target] < 0:
        raise ConsistencyError("no transition path between darts of an irreducible graph")
    return _tree_path(parent, source, target)


def check_cycle_condition(g: Graph) -> ConditionVerdict:
    """Exact test of prod(outdeg) = L**|C| over every non-backtracking cycle.

    Builds a potential phi on darts from a BFS spanning tree of the
    transition digraph, fixing phi(f) = phi(e) * L / outdeg(e) along tree
    arcs.  If every non-tree transition satisfies the same relation, phi
    certifies the criterion for all cycles at once (the relation telescopes
    around any cycle).  Otherwise a violating transition combines with
    return paths into an explicit violating cycle.

    phi is kept as Phi = D log phi in integer prime exponents, so each arc
    adds ``step[e] = total - D v(outdeg e)``; all arcs are checked at once
    through the vertices (the successors of e are the darts leaving head(e)
    except rev(e)).
    """
    require_nb_irreducible(g)
    lam = _lambda(g)
    ex = _exponents(g)
    d = g.dart_count
    step = ex.total - d * ex.rows
    root = 0
    parent, levels = _bfs(g, root)
    if (parent < 0).sum() > 1:
        raise ConsistencyError("transition digraph is not strongly connected")
    phi = np.zeros_like(step)
    for level in levels[1:]:
        above = parent[level]
        phi[level] = phi[above] + step[above]

    # every successor f of e must carry phi[e] + step[e]; compare it with a
    # reference successor (the smallest or, if that is rev e, the second
    # smallest dart leaving head e) and count the successors unlike that one
    expected = phi + step
    tail, head, rev = g.dart_tail, g.dart_head, g.dart_reverse
    offsets, flat = g.out_dart_table
    smallest, next_smallest = flat[offsets[:-1]], flat[offsets[:-1] + 1]

    def unlike(ref):
        """Per dart f, whether phi[f] differs from phi[ref[tail f]]; per
        vertex, how many of the darts leaving it do."""
        off = (phi != phi[ref[tail]]).any(axis=1)
        return off, np.bincount(tail[off], minlength=g.vertex_count)

    off_a, count_a = unlike(smallest)
    off_b, count_b = unlike(next_smallest)
    skip = rev == smallest[head]
    reference = np.where(skip, next_smallest[head], smallest[head])
    others_unlike = np.where(skip, count_b[head] - off_b[rev], count_a[head] - off_a[rev])
    bad = (others_unlike > 0) | (phi[reference] != expected).any(axis=1)

    if not bad.any():
        potential = _Potential(ex.primes, d, phi)
        return ConditionVerdict(holds=True, lambda_exact=lam, phi=potential)

    e = int(np.argmax(bad))
    successors = flat[offsets[head[e]]:offsets[head[e] + 1]]
    successors = successors[successors != rev[e]]
    f = int(successors[np.argmax((phi[successors] != expected[e]).any(axis=1))])
    # Tree paths from the root have consistent potentials, so of the two
    # closed walks below at least one must break the product identity:
    # their balances differ by exactly the bad arc's discrepancy.
    tree_to_e = _tree_path(parent, root, e)
    tree_to_f = _tree_path(parent, root, f)
    back = _bfs_path(g, f, root)
    cycle_a = tree_to_e + back[:-1]  # root..e, arc e->f, f..(pred of root)
    cycle_b = tree_to_f + back[1:-1]  # root..f, f's continuation back to root
    for cycle in (cycle_a, cycle_b):
        if (step[cycle].sum(axis=0) != 0).any():
            _assert_nb_cycle(g, cycle)
            return ConditionVerdict(holds=False, lambda_exact=lam, witness_cycle=tuple(cycle))
    raise ConsistencyError("inconsistent potential produced no violating cycle")


def _tree_path(parent: np.ndarray, root: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != root:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def _assert_nb_cycle(g: Graph, cycle: list[int]) -> None:
    darts = np.asarray(cycle)
    following = np.roll(darts, -1)
    if np.any(g.dart_tail[following] != g.dart_head[darts]) or np.any(following == g.dart_reverse[darts]):
        raise ConsistencyError("constructed witness is not a closed non-backtracking walk")


def path_growth_function(g: Graph) -> list[ExactValue]:
    """Per-dart balance value of the suspended path containing the dart."""
    values: list[Optional[ExactValue]] = [None] * g.dart_count
    for path in suspended_path_decomposition(g):
        for d in path.darts:
            values[d] = path.g_value
    return values  # type: ignore[return-value]


# --- improving-cycle search ---------------------------------------------------


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
    return np.flatnonzero(np.isin(g.dart_edge, list(edge_ids))).tolist()


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
            removed_edges = {int(g.dart_edge[d]) for d in orig}
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


# --- combined verdict --------------------------------------------------------


@dataclass(frozen=True)
class GrowthVerdict:
    """Outcome of the equality test between the two growth rates."""

    equal: bool
    lambda_exact: ExactValue
    lambda_float: float
    perron: PerronResult
    gap: float
    path_condition: ConditionVerdict
    cycle_condition: ConditionVerdict

    @property
    def rho(self) -> float:
        return self.perron.value

    @property
    def status(self) -> str:
        return "equal" if self.equal else "strict"

    def to_json(self) -> dict:
        """The verdict keys of the ``analyze --json`` report, in its order."""
        return {
            "lambda": {"float": self.lambda_float, "exact": self.lambda_exact.as_pairs()},
            "rho": {
                "value": self.rho,
                "rel_tol": self.perron.rel_tol,
                "iterations": self.perron.iterations,
                "low": self.perron.low,
                "high": self.perron.high,
                "matvecs": self.perron.matvecs,
            },
            "suspended_path_condition": self.path_condition.to_json(),
            "cycle_condition": self.cycle_condition.to_json(),
            "verdict": self.status,
            "gap": self.gap,
        }


def growth_verdict(g: Graph, rel_tol: float = 1e-12) -> GrowthVerdict:
    """Decide rho = Lambda exactly and report the numeric gap.

    The two exact criteria are both evaluated and must agree; disagreement
    raises :class:`ConsistencyError` since it can only mean a bug.

    When they hold, the potential is a positive Perron vector: every
    continuation f of e has phi(f) = phi(e) * Lambda / outdeg(e), so
    B phi = Lambda phi, and one matvec brackets rho.  Otherwise rho starts
    from the lift of the solve on B reduced to its branching darts
    (:func:`nb_perron`).  Either start is certified on B; if floating point
    cannot resolve its bracket to ``rel_tol``, the shifted power iteration
    on B goes on from it.
    """
    path_verdict = check_suspended_path_condition(g)
    cycle_verdict = check_cycle_condition(g)
    if path_verdict.holds != cycle_verdict.holds:
        raise ConsistencyError(
            f"suspended-path checker says {path_verdict.holds}, cycle checker says {cycle_verdict.holds}"
        )
    lam = path_verdict.lambda_exact
    lam_float = float(lam)
    start = None
    if cycle_verdict.phi is not None:
        log_phi = cycle_verdict.phi.log()
        start = np.exp(np.maximum(log_phi - log_phi.max(), -700.0))  # stays a positive normal float
    rho = nb_perron(g, rel_tol=rel_tol, start=start)
    return GrowthVerdict(
        equal=path_verdict.holds,
        lambda_exact=lam,
        lambda_float=lam_float,
        perron=rho,
        gap=rho.value - lam_float,
        path_condition=path_verdict,
        cycle_condition=cycle_verdict,
    )
