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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import ExactValue, geometric_mean
from .graph import HALF_LOOP, WHOLE_LOOP, Graph, build_graph
from .operators import (
    PerronResult,
    PreconditionError,
    build_nb_matrix,
    perron,
    require_nb_irreducible,
)


class ConsistencyError(RuntimeError):
    """The two exact checkers disagreed; indicates an implementation bug."""


def average_growth_rate(g: Graph) -> tuple[ExactValue, float]:
    """Geometric mean of outdeg over all darts, exact plus float.

    This is the growth rate the walk's stationary distribution predicts:
    prod_e outdeg(e) ** (1/dart_count).
    """
    if g.vertex_count == 0 or int(g.degrees.min()) < 2:
        raise PreconditionError("average growth rate requires minimum degree >= 2")
    product = ExactValue()
    for e in range(g.dart_count):
        product = product * ExactValue.from_integer(g.out_degree(e))
    exact = product ** Fraction(1, g.dart_count)
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
    g_value: ExactValue

    @property
    def length(self) -> int:
        return len(self.darts)


def suspended_path_decomposition(g: Graph) -> list[SuspendedPath]:
    """Partition all darts into suspended paths.

    Paths start at darts with indeg > 1, extend while outdeg stays 1, and
    are returned sorted by their smallest contained dart index.
    """
    require_nb_irreducible(g)
    offsets, flat = (a.tolist() for a in g.successor_table)
    paths = []
    seen = [False] * g.dart_count
    for start in range(g.dart_count):
        if g.in_degree(start) <= 1:
            continue
        darts = [start]
        while offsets[darts[-1] + 1] - offsets[darts[-1]] == 1:
            darts.append(flat[offsets[darts[-1]]])
            if len(darts) > g.dart_count:
                raise ConsistencyError("suspended path did not terminate")
        for d in darts:
            if seen[d]:
                raise ConsistencyError("dart assigned to two suspended paths")
            seen[d] = True
        base = ExactValue.from_integer(g.out_degree(darts[-1])) * ExactValue.from_integer(
            g.in_degree(darts[0])
        )
        paths.append(
            SuspendedPath(
                darts=tuple(darts),
                in_degree=g.in_degree(darts[0]),
                out_degree=g.out_degree(darts[-1]),
                g_value=base ** Fraction(1, 2 * len(darts)),
            )
        )
    if not all(seen):
        raise ConsistencyError("suspended paths do not cover the dart set")
    paths.sort(key=lambda p: min(p.darts))
    return paths


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one exact criterion.

    ``witness`` is a potential certificate (dart -> ExactValue) when the
    cycle criterion holds, a violating :class:`SuspendedPath`, or a
    violating cycle as a dart tuple.  The path criterion carries no
    certificate object when it holds.
    """

    holds: bool
    lambda_exact: ExactValue
    witness_path: Optional[SuspendedPath] = None
    witness_cycle: Optional[tuple[int, ...]] = None
    potential: Optional[dict[int, ExactValue]] = None

    def to_json(self) -> dict:
        payload = {
            "holds": self.holds,
            "lambda": {"float": float(self.lambda_exact), "exact": self.lambda_exact.as_pairs()},
        }
        if self.witness_path is not None:
            payload["witness"] = {"type": "path", "darts": list(self.witness_path.darts)}
        elif self.witness_cycle is not None:
            payload["witness"] = {"type": "cycle", "darts": list(self.witness_cycle)}
        elif self.potential is not None:
            payload["witness"] = {
                "type": "potential",
                "darts": [],
                "phi": {str(d): v.as_pairs() for d, v in sorted(self.potential.items())},
            }
        else:
            payload["witness"] = None
        return payload


def check_suspended_path_condition(g: Graph) -> ConditionVerdict:
    """Exact test of outdeg(P) * indeg(P) = L**(2|P|) for every path."""
    require_nb_irreducible(g)
    lam = _lambda(g)
    for path in suspended_path_decomposition(g):
        if path.g_value != lam:
            return ConditionVerdict(holds=False, lambda_exact=lam, witness_path=path)
    return ConditionVerdict(holds=True, lambda_exact=lam)


def _bfs_tree(offsets: list[int], flat: list[int], root: int) -> tuple[list[Optional[int]], list[int]]:
    """Parent dart of each dart, and visit order, in a BFS of the
    transition digraph given as successor lists."""
    parent: list[Optional[int]] = [None] * (len(offsets) - 1)
    order = [root]
    seen = [False] * len(parent)
    seen[root] = True
    i = 0
    while i < len(order):
        e = order[i]
        i += 1
        for f in flat[offsets[e]:offsets[e + 1]]:
            if not seen[f]:
                seen[f] = True
                parent[f] = e
                order.append(f)
    if not all(seen):
        raise ConsistencyError("transition digraph is not strongly connected")
    return parent, order


def _bfs_path(offsets: list[int], flat: list[int], source: int, target: int) -> list[int]:
    """Shortest dart sequence source..target along transitions."""
    if source == target:
        return [source]
    parent: dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        nxt = []
        for e in frontier:
            for f in flat[offsets[e]:offsets[e + 1]]:
                if f not in parent:
                    parent[f] = e
                    if f == target:
                        path = [target]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(f)
        frontier = nxt
    raise ConsistencyError("no transition path between darts of an irreducible graph")


def _cycle_balance(g: Graph, cycle: list[int], lam: ExactValue) -> ExactValue:
    """prod(outdeg(e) for e in cycle) / lam**len(cycle), exactly."""
    value = ExactValue()
    for e in cycle:
        value = value * ExactValue.from_integer(g.out_degree(e))
    return value / (lam ** len(cycle))


def check_cycle_condition(g: Graph) -> ConditionVerdict:
    """Exact test of prod(outdeg) = L**|C| over every non-backtracking cycle.

    Builds a potential phi on darts from a BFS spanning tree of the
    transition digraph, fixing phi(f) = phi(e) * L / outdeg(e) along tree
    arcs.  If every non-tree transition satisfies the same relation, phi
    certifies the criterion for all cycles at once (the relation telescopes
    around any cycle).  Otherwise a violating transition combines with
    return paths into an explicit violating cycle.
    """
    require_nb_irreducible(g)
    lam = _lambda(g)
    offsets, flat = (a.tolist() for a in g.successor_table)
    root = 0
    parent, order = _bfs_tree(offsets, flat, root)

    phi: list[Optional[ExactValue]] = [None] * g.dart_count
    phi[root] = ExactValue.one()
    for f in order[1:]:
        e = parent[f]
        phi[f] = phi[e] * lam / ExactValue.from_integer(g.out_degree(e))

    bad_arc = None
    for e in range(g.dart_count):
        expected = phi[e] * lam / ExactValue.from_integer(g.out_degree(e))
        for f in flat[offsets[e]:offsets[e + 1]]:
            if phi[f] != expected:
                bad_arc = (e, f)
                break
        if bad_arc:
            break

    if bad_arc is None:
        potential = {d: phi[d] for d in range(g.dart_count)}
        return ConditionVerdict(holds=True, lambda_exact=lam, potential=potential)

    e, f = bad_arc
    # Tree paths from the root have consistent potentials, so of the two
    # closed walks below at least one must break the product identity:
    # their balances differ by exactly the bad arc's discrepancy.
    tree_to_e = _tree_path(parent, root, e)
    tree_to_f = _tree_path(parent, root, f)
    back = _bfs_path(offsets, flat, f, root)
    cycle_a = tree_to_e + back[:-1]  # root..e, arc e->f, f..(pred of root)
    cycle_b = tree_to_f + back[1:-1]  # root..f, f's continuation back to root
    for cycle in (cycle_a, cycle_b):
        if not _cycle_balance(g, cycle, lam).is_one():
            _assert_nb_cycle(g, cycle)
            return ConditionVerdict(holds=False, lambda_exact=lam, witness_cycle=tuple(cycle))
    raise ConsistencyError("inconsistent potential produced no violating cycle")


def _tree_path(parent: list[Optional[int]], root: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != root:
        path.append(parent[path[-1]])
    return path[::-1]


def _assert_nb_cycle(g: Graph, cycle: list[int]) -> None:
    offsets, flat = g.successor_table
    for i, e in enumerate(cycle):
        f = cycle[(i + 1) % len(cycle)]
        if f not in flat[offsets[e]:offsets[e + 1]]:
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


def _edge_degrees(g: Graph, edge_ids: set[int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for i in edge_ids:
        a, b, kind = g.edges[i]
        if kind == HALF_LOOP:
            deg[a] = deg.get(a, 0) + 1
        elif kind == WHOLE_LOOP:
            deg[a] = deg.get(a, 0) + 2
        else:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
    return deg


def _prune_to_min_degree_two(g: Graph, edge_ids: set[int]) -> set[int]:
    """Drop edges at degree-deficient vertices until min degree >= 2."""
    edges = set(edge_ids)
    while edges:
        deg = _edge_degrees(g, edges)
        weak = {v for v, d in deg.items() if d < 2}
        if not weak:
            return edges
        edges = {i for i in edges if not (g.edges[i][0] in weak or g.edges[i][1] in weak)}
    return edges


def _edge_components(g: Graph, edge_ids: set[int]) -> list[set[int]]:
    remaining = set(edge_ids)
    components = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        comp = {seed}
        verts = set(g.edges[seed][:2])
        changed = True
        while changed:
            changed = False
            for i in list(remaining - comp):
                a, b, _ = g.edges[i]
                if a in verts or b in verts:
                    comp.add(i)
                    verts.update((a, b))
                    changed = True
        components.append(comp)
        remaining -= comp
    return components


def _darts_of_edges(g: Graph, edge_ids: set[int]) -> list[int]:
    return [d for d in range(g.dart_count) if int(g.dart_edge[d]) in edge_ids]


def _trace_cycle(sub: Graph, dart_map: dict[int, int]) -> list[int]:
    """Follow unique continuations in an all-degree-two graph, from the
    smallest original dart, until the start dart repeats."""
    offsets, flat = (a.tolist() for a in sub.successor_table)
    start = min(range(sub.dart_count), key=lambda d: dart_map[d])
    cycle = [start]
    while True:
        e = cycle[-1]
        if offsets[e + 1] - offsets[e] != 1:
            raise ConsistencyError("cycle trace found a branching dart")
        if flat[offsets[e]] == start:
            break
        cycle.append(flat[offsets[e]])
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
    offsets, flat = (a.tolist() for a in g.successor_table)
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
            for v in flat[offsets[u]:offsets[u + 1]]:
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
    means = [(geometric_mean([f[d] for d in c]), i) for i, c in enumerate(cycles)]
    top = means[0]
    for item in means[1:]:
        if item[0] > top[0]:
            top = item
    return cycles[top[1]]


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
    best_mean = scored[0][0]
    for mean, _, _ in scored[1:]:
        if mean > best_mean:
            best_mean = mean
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
        return {
            "verdict": self.status,
            "lambda": {"float": self.lambda_float, "exact": self.lambda_exact.as_pairs()},
            "rho": self.rho,
            "gap": self.gap,
            "suspended_path_condition": self.path_condition.to_json(),
            "cycle_condition": self.cycle_condition.to_json(),
        }


def growth_verdict(g: Graph, rel_tol: float = 1e-12) -> GrowthVerdict:
    """Decide rho = Lambda exactly and report the numeric gap.

    The two exact criteria are both evaluated and must agree; disagreement
    raises :class:`ConsistencyError` since it can only mean a bug.
    """
    path_verdict = check_suspended_path_condition(g)
    cycle_verdict = check_cycle_condition(g)
    if path_verdict.holds != cycle_verdict.holds:
        raise ConsistencyError(
            f"suspended-path checker says {path_verdict.holds}, cycle checker says {cycle_verdict.holds}"
        )
    lam = path_verdict.lambda_exact
    lam_float = float(lam)
    rho = perron(build_nb_matrix(g), rel_tol=rel_tol)
    return GrowthVerdict(
        equal=path_verdict.holds,
        lambda_exact=lam,
        lambda_float=lam_float,
        perron=rho,
        gap=rho.value - lam_float,
        path_condition=path_verdict,
        cycle_condition=cycle_verdict,
    )
