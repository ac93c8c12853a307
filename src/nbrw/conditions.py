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
The path criterion and the improving-cycle search read them summed per
suspended path, on its first dart.  ``ExactValue`` appears only in what is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .exact import ExactValue, exponent_sign, factorize
from .graph import Graph, SuspendedPaths, _component_labels
from .operators import (
    CapabilityError,
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
        """``{dart: [[prime, num, den], ...]}``, exponents in lowest terms.

        A potential repeats few values (it is constant on the darts leaving
        each vertex of degree >= 3), so darts with equal rows share one
        pair list."""
        rows, index = self.rows, None
        if rows.dtype != object:  # rows beyond int64 are reduced one by one
            # group the rows by 1-D keys: the first column, then each next one
            # folded in and renumbered, so that a key stays below D**2
            _, first, index = np.unique(rows[:, 0], return_index=True, return_inverse=True)
            for column in rows.T[1:]:
                values, rank = np.unique(column, return_inverse=True)
                _, first, index = np.unique(index * len(values) + rank, return_index=True, return_inverse=True)
            rows = rows[first]
        common = np.gcd(rows, self.scale)
        nums, dens = (rows // common).tolist(), (self.scale // common).tolist()
        pairs = [[[p, n, m] for p, n, m in zip(self.primes, num, den) if n] for num, den in zip(nums, dens)]
        if index is not None:
            pairs = [pairs[i] for i in index.tolist()]
        return dict(zip(map(str, range(len(pairs))), pairs))

    def log(self) -> np.ndarray:
        """Natural log of phi, in floating point."""
        logs = np.log(np.asarray(self.primes, dtype=np.float64))
        return np.asarray(self.rows @ logs, dtype=np.float64) / self.scale


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one exact criterion.

    The witness is a potential certificate ``phi`` (integer exponent rows,
    one per dart) when the cycle criterion holds, a violating
    :class:`SuspendedPath`, or a violating cycle as a dart tuple.  The path
    criterion carries no certificate object when it holds.
    """

    holds: bool
    lambda_exact: ExactValue
    witness_path: Optional[SuspendedPath] = None
    witness_cycle: Optional[tuple[int, ...]] = None
    phi: Optional[_Potential] = field(default=None, compare=False, repr=False)

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


def _path_rows(g: Graph) -> np.ndarray:
    """The exponent row of outdeg(P) * indeg(P) on the first dart of each
    suspended path P, and 0 on every other dart: a sum of these rows over
    whole paths is the sum of 2 |P| log g(P), the path balance values."""
    ex = _exponents(g)
    paths = g.suspended_paths
    first = paths.order[paths.start]
    rows = np.zeros_like(ex.rows)
    # indeg of a dart is outdeg of its reverse
    rows[first] = ex.rows[paths.anchor[first]] + ex.rows[g.dart_reverse[first]]
    return rows


def check_suspended_path_condition(g: Graph) -> ConditionVerdict:
    """Exact test of outdeg(P) * indeg(P) = L**(2|P|) for every path.

    In exponents scaled by D: D (v(outdeg P) + v(indeg P)) = 2 |P| total,
    for all paths at once; the witness is the violating path with the
    smallest dart.
    """
    require_nb_irreducible(g)
    lam = _lambda(g)
    paths = g.suspended_paths
    balance = g.dart_count * _path_rows(g)[paths.order[paths.start]]
    balance -= (2 * paths.length)[:, None] * _exponents(g).total
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


# --- improving-cycle search ---------------------------------------------------
#
# The search sums ``_path_rows`` only over unions of whole suspended paths of
# g (subgraph paths, pruned chains, components, cycles), so each mean that it
# compares, a row sum over a dart count, is twice the log of a mean of g(P).

_MAX_MEAN_CELLS = 2**16  # of Karp's table in the maximum-mean fallback


def _best_component(g: Graph, live: np.ndarray, primes: tuple[int, ...], rows: np.ndarray):
    """Drops from ``live``, in place, the edges at vertices of degree one
    until there are none, then gives ``(edge mask, row sum, dart count)`` of
    the component with the largest mean, ties to the smallest dart, or None
    when no edge is left."""
    while True:
        on = live[g.dart_edge]
        weak = g.dart_edge[on & (np.bincount(g.dart_tail[on], minlength=g.vertex_count) == 1)[g.dart_tail]]
        if not len(weak):
            break
        live[weak] = False
    darts = np.flatnonzero(live[g.dart_edge])
    if not len(darts):
        return None
    labels = _component_labels(g.vertex_count, g.dart_tail[darts], g.dart_head[darts])
    _, smallest, component = np.unique(labels[g.dart_tail[darts]], return_index=True, return_inverse=True)
    sums = np.zeros((len(smallest), len(primes)), dtype=rows.dtype)
    np.add.at(sums, component, rows[darts])
    counts = np.bincount(component).tolist()
    best = 0  # darts ascend, so smallest[c] orders the components by their smallest dart
    for c in range(1, len(counts)):
        sign = exponent_sign(primes, (sums[c] * counts[best] - sums[best] * counts[c]).tolist())
        if sign > 0 or (sign == 0 and smallest[c] < smallest[best]):
            best = c
    kept = np.zeros_like(live)
    kept[g.dart_edge[darts[component == best]]] = True
    return kept, sums[best], counts[best]


def find_improving_cycle(g: Graph) -> list[int]:
    """Peel suspended paths until a cycle with above-average g(P) remains.

    Each dart of a suspended path P carries g(P) = (outdeg(P) indeg(P)) **
    (1 / (2 |P|)), the value that the path criterion compares with lambda.
    Repeatedly removes a suspended path of the current subgraph (a mask
    over the edges) whose geometric mean of g is at most the subgraph's,
    the first by leading dart after which the mean does not drop; prunes to
    minimum degree two; keeps the connected component with the largest
    mean (ties to the smallest dart); and stops when only a cycle is left,
    returned from its smallest dart.  The returned non-backtracking cycle C
    satisfies, exactly,

        geometric_mean(g over C) >= geometric_mean(g over all darts),

    strictly when some suspended path of the graph falls strictly below the
    global mean.  Means are compared exactly, as integer exponent rows.

    When every removal loses ground (above-average darts stranded on a
    bridge), the guarantee is met by a cycle of maximum mean instead:
    Karp's dynamic program with its table kept at the first dart of each
    suspended path, (D + 1) * (number of paths) cells of one integer row
    over the primes of the degrees and a back link.  Above 2**16 cells it
    raises :class:`~nbrw.operators.CapabilityError` (a ``ValueError``)
    before building the table.
    """
    require_nb_irreducible(g)
    primes, rows = _exponents(g).primes, _path_rows(g)
    tail, head, edge = g.dart_tail, g.dart_head, g.dart_edge
    live = np.ones(len(g.edges), dtype=bool)
    total, count = rows.sum(axis=0), g.dart_count  # the current mean is total / count
    while True:
        darts = np.flatnonzero(live[edge])
        degree = np.bincount(tail[darts], minlength=g.vertex_count)
        # a live dart into a vertex of degree two goes on along the one of
        # the two live darts leaving it that is not its reverse
        pair = np.zeros(g.vertex_count, dtype=np.int64)
        np.add.at(pair, tail[darts], darts)
        chain = darts[degree[head[darts]] == 2]
        after = np.full(g.dart_count, -1)
        after[chain] = pair[head[chain]] - g.dart_reverse[chain]
        if degree.max() <= 2:
            cycle = [int(darts[0])]
            while after[cycle[-1]] != cycle[0]:
                if after[cycle[-1]] < 0 or len(cycle) == len(darts):
                    raise ConsistencyError("cycle trace did not close")
                cycle.append(int(after[cycle[-1]]))
            return cycle

        # the subgraph's suspended paths, each dart named by its path's first
        first = np.arange(g.dart_count)
        chained = np.flatnonzero(after >= 0)
        first[after[chained]] = chained
        while not np.array_equal(first[first], first):
            first = first[first]
        sums = np.zeros_like(rows)
        np.add.at(sums, first[darts], rows[darts])
        sizes = np.bincount(first[darts], minlength=g.dart_count)
        leads = darts[degree[tail[darts]] != 2]
        balance = (sums[leads] * count - sizes[leads, None] * total).tolist()
        leads = leads[[exponent_sign(primes, row) <= 0 for row in balance]]
        if not len(leads):
            raise ConsistencyError("no suspended path at or below the current mean")

        for lead in leads.tolist():
            kept = live.copy()
            kept[edge[darts[first[darts] == lead]]] = False
            best = _best_component(g, kept, primes, rows)
            if best is not None and exponent_sign(primes, (best[1] * count - total * best[2]).tolist()) >= 0:
                live, total, count = best
                break
        else:
            break

    cycle = _max_mean_cycle(g)
    balance = rows[cycle].sum(axis=0) * g.dart_count - rows.sum(axis=0) * len(cycle)
    if exponent_sign(primes, balance.tolist()) < 0:
        raise ConsistencyError("no cycle reaches the global mean")
    return cycle


def _max_mean_cycle(g: Graph) -> list[int]:
    """Cycle of maximum geometric mean of g(P) in the transition digraph.

    Karp's dynamic program: best[k][v] is the largest row sum over walks
    of k arcs from a fixed dart to dart v, and the maximum mean is
    max_v min_k (best[D][v] - best[k][v]) / (D - k).  A walk has one way on
    inside a suspended path, and the arc leaving a path's first dart adds
    the whole path's row (``_path_rows``), so the table is kept at the
    first dart b of each path only: the dart j steps into b's path has
    best[k][.] = best[k - j][b] + row(b), with row(b) the same for every k,
    so its Karp term is b's with D - j in place of D.  Every cycle on the
    walk realizing the largest term attains the maximum.  All comparisons
    are exact.
    """
    paths = g.suspended_paths
    cells = (g.dart_count + 1) * len(paths.start)
    if cells > _MAX_MEAN_CELLS:
        raise CapabilityError(f"a maximum-mean cycle search needs {cells} table cells, more than {_MAX_MEAN_CELLS}")
    from functools import cmp_to_key

    primes, d = _exponents(g).primes, g.dart_count
    weight = _path_rows(g).tolist()
    length, end = (paths.dist + 1).tolist(), paths.anchor.tolist()
    head, reverse, successor = g.dart_head.tolist(), g.dart_reverse.tolist(), g.chain_successor.tolist()
    offsets, flat = (a.tolist() for a in g.out_dart_table)
    # orders (row sum, darts) pairs by their mean
    mean = cmp_to_key(lambda a, b: exponent_sign(primes, [x * b[1] - y * a[1] for x, y in zip(a[0], b[0])]))

    # table[k][b]: the best row sum of a walk of k darts into the first dart
    # b of a path, and the first dart of the path before (-1 at the start)
    table: list[dict[int, tuple[list[int], int]]] = [{} for _ in range(d + 1)]
    table[0][int(paths.order[0])] = ([0] * len(primes), -1)
    for k, cells_k in enumerate(table):
        for a, (value, _) in cells_k.items():
            if k + length[a] <= d:
                reached = ([x + y for x, y in zip(value, weight[a])], a)
                later, v = table[k + length[a]], head[end[a]]
                for b in flat[offsets[v]:offsets[v + 1]]:
                    if b != reverse[end[a]] and (b not in later or mean((reached[0], 1)) > mean((later[b][0], 1))):
                        later[b] = reached

    columns: dict[int, list[int]] = {}
    for k, cells_k in enumerate(table):
        for b in cells_k:
            columns.setdefault(b, []).append(k)
    # Karp's term of the dart D - m steps into the path of b, for m > 0 with
    # a walk into b, is the smallest mean (table[m][b] - table[k][b]) / (m - k);
    # a walk of D darts exists, and its cycle leaves a shorter walk to its end
    terms = [
        (min((([x - y for x, y in zip(table[m][b][0], table[k][b][0])], m - k) for k in ks[:n]), key=mean), m, b)
        for b, ks in columns.items()
        for n, m in enumerate(ks)
        if n and m > d - length[b]
    ]

    # the walk's first repeated dart begins a path, so its first cycle is
    # a run of whole paths between two visits of one first dart
    _, m, b = max(terms, key=lambda term: mean(term[0]))
    firsts = [b]
    while table[m][firsts[-1]][1] >= 0:
        firsts.append(table[m][firsts[-1]][1])
        m -= length[firsts[-1]]
    firsts.reverse()
    n = next(n for n, a in enumerate(firsts) if a in firsts[:n])
    cycle = []
    for c in firsts[firsts.index(firsts[n]):n]:
        cycle.append(c)
        for _ in range(length[c] - 1):
            cycle.append(successor[cycle[-1]])
    return cycle


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
