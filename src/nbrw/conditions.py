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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .exact import ExactValue, factorize
from .graph import Graph, SuspendedPaths
from .operators import PerronResult, PreconditionError, nb_perron, require_nb_irreducible


class ConsistencyError(RuntimeError):
    """The two exact checkers disagreed; indicates an implementation bug."""


@dataclass(frozen=True)
class _Exponents:
    """log outdeg(e) and log lambda as integer vectors over ``primes``.

    ``table[index[e]]`` holds the prime exponents of outdeg(e) and ``total``
    their sum over all darts, so lambda = prod(p ** (total_p / dart_count)).
    ``index`` is the walk tables' value index, a view: row i of ``table`` is
    the i-th tracked degree's, and row -1, all zeros, outdeg 1's.
    """

    primes: tuple[int, ...]
    table: np.ndarray
    index: np.ndarray
    total: np.ndarray


def _exponents(g: Graph) -> _Exponents:
    """The graph's exponent table, computed once per (immutable) graph."""
    if not hasattr(g, "_exponent_table"):
        *_, index, degrees = g._layout
        factors = [factorize(int(d)) for d in degrees]
        primes = tuple(sorted({p for f in factors for p in f}))
        # |potential| <= D max|total - D row|, |balance| <= 2 D (D + 1) max row; at most 2**22 edges (nbrw._text)
        # give D <= 2**23 and outdeg < 2**23, so max row <= 22 and 4 D (D + 1) max row < 2**53, far inside int64
        table = np.array([[f.get(p, 0) for p in primes] for f in [*factors, {}]], dtype=np.int64)
        total = np.bincount(index[index >= 0], minlength=len(degrees)) @ table[:-1]
        g._exponent_table = _Exponents(primes, table, index, total)
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


def _path(g: Graph, paths: SuspendedPaths, i: int, successor) -> SuspendedPath:
    """Path i of the graph's path layout, followed from its first dart
    along ``successor`` (``g.chain_successor``, as an array or a list)."""
    darts = [int(g.dart_reverse[paths.last[paths.reverse[i]]])]
    for _ in range(int(paths.length[i]) - 1):
        darts.append(int(successor[darts[-1]]))
    return SuspendedPath(darts=tuple(darts), in_degree=g.in_degree(darts[0]), out_degree=g.out_degree(darts[-1]))


def suspended_path_decomposition(g: Graph) -> list[SuspendedPath]:
    """Partition all darts into suspended paths.

    Paths start at darts with indeg > 1, extend while outdeg stays 1, and
    are returned sorted by their smallest contained dart index.
    """
    require_nb_irreducible(g)
    paths, successor = g.suspended_paths, g.chain_successor.tolist()
    # darts ascend, so each path first appears at its smallest dart
    return [_path(g, paths, i, successor) for i in dict.fromkeys(paths.path.tolist())]


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
        # group the rows by 1-D keys: the first column, then each next one
        # folded in and renumbered, so that a key stays below D**2
        _, first, index = np.unique(self.rows[:, 0], return_index=True, return_inverse=True)
        for column in self.rows.T[1:]:
            values, rank = np.unique(column, return_inverse=True)
            _, first, index = np.unique(index * len(values) + rank, return_index=True, return_inverse=True)
        rows = self.rows[first]
        common = np.gcd(rows, self.scale)
        nums, dens = (rows // common).tolist(), (self.scale // common).tolist()
        pairs = [[[p, n, m] for p, n, m in zip(self.primes, num, den) if n] for num, den in zip(nums, dens)]
        return {str(d): pairs[i] for d, i in enumerate(index.tolist())}

    def log(self) -> np.ndarray:
        """Natural log of phi, in floating point."""
        return self.rows @ np.log(self.primes) / self.scale


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


def check_suspended_path_condition(g: Graph) -> ConditionVerdict:
    """Exact test of outdeg(P) * indeg(P) = L**(2|P|) for every path.

    In exponents scaled by D: D (v(outdeg P) + v(indeg P)) = 2 |P| total,
    for all paths at once; the witness is the violating path with the
    smallest dart.
    """
    require_nb_irreducible(g)
    lam = _lambda(g)
    ex, paths = _exponents(g), g.suspended_paths
    # path i begins at rev(last[reverse[i]]), whose indeg is outdeg(last[reverse[i]])
    out = ex.table[ex.index[paths.last]]
    balance = g.dart_count * (out + out[paths.reverse]) - (2 * paths.length)[:, None] * ex.total
    bad = (balance != 0).any(axis=1)[paths.path]
    if bad.any():
        # darts ascend, so the first bad dart is the smallest on any bad path
        worst = int(paths.path[np.argmax(bad)])
        return ConditionVerdict(holds=False, lambda_exact=lam, witness_path=_path(g, paths, worst, g.chain_successor))
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
    step = (ex.total - d * ex.table)[ex.index]
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
    on B goes on from it.  An equal verdict reports rho as Lambda's float,
    so the gap is 0.0; its bracket stays the float check.
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
    rho = replace(rho, value=lam_float) if path_verdict.holds else rho
    return GrowthVerdict(
        equal=path_verdict.holds,
        lambda_exact=lam,
        lambda_float=lam_float,
        perron=rho,
        gap=rho.value - lam_float,
        path_condition=path_verdict,
        cycle_condition=cycle_verdict,
    )
