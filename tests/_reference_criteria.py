"""The exact criteria as they were decided before the integer rewrite:
per-dart ``ExactValue`` products, a Python BFS, and one exact comparison
per transition arc.

Kept verbatim (apart from imports, an uncached ``_lambda`` and successor
lists read from :func:`dart_transitions`) as the oracle that
``test_criteria_reference.py`` compares the integer-exponent criteria
against: same verdicts, same path and cycle witnesses, same potentials.
:func:`potential` reads the integer potential of a package verdict back
as that map; it was the package's ``ConditionVerdict.potential``
property, kept verbatim as a function of the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from nbrw.exact import ExactValue
from nbrw.graph import Graph
from nbrw.operators import PreconditionError, require_nb_irreducible

from _reference_walks import dart_transitions


class ConsistencyError(RuntimeError):
    """The two exact checkers disagreed; indicates an implementation bug."""


def potential(verdict) -> Optional[dict[int, ExactValue]]:
    """The potential certificate of a :func:`nbrw.check_cycle_condition`
    verdict as a dart -> ``ExactValue`` map; None when it carries none."""
    if verdict.phi is None:
        return None
    scale = verdict.phi.scale
    return {
        d: ExactValue({p: Fraction(x, scale) for p, x in zip(verdict.phi.primes, row)})
        for d, row in enumerate(verdict.phi.rows.tolist())
    }


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


def _successor_lists(g: Graph) -> tuple[list[int], list[int]]:
    """CSR ``(offsets, flat)`` of :func:`dart_transitions`, as lists."""
    offsets, flat = [0], []
    for e in range(g.dart_count):
        flat += dart_transitions(g, e)
        offsets.append(len(flat))
    return offsets, flat


def _lambda(g: Graph) -> ExactValue:
    """Exact average growth rate, recomputed on every call so that nothing
    cached on the graph by the package under test is read back."""
    return average_growth_rate(g)[0]


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
    offsets, flat = _successor_lists(g)
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
    offsets, flat = _successor_lists(g)
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
    offsets, flat = _successor_lists(g)
    for i, e in enumerate(cycle):
        f = cycle[(i + 1) % len(cycle)]
        if f not in flat[offsets[e]:offsets[e + 1]]:
            raise ConsistencyError("constructed witness is not a closed non-backtracking walk")
