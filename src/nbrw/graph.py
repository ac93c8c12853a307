"""Undirected multigraphs with dart (directed-edge) indexing.

A dart is one orientation of an undirected edge.  Normal edges and
whole-loops contribute two mutually-reverse darts; a half-loop contributes
a single dart that is its own reverse.  Darts of the i-th paired edge
occupy indices 2i and 2i+1 (reverse = index XOR 1); half-loop darts are
appended after all paired darts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the edge kinds, both errors and the verdict are this module's public names too
from ._text import (HALF_LOOP, NORMAL, WHOLE_LOOP, GraphError, GraphParseError, IrreducibilityVerdict, _checked_edge,
                    format_text, parse_text)


@dataclass(frozen=True)
class SuspendedPaths:
    """The suspended paths as arrays: ``order`` lists the darts path by
    path, each along the walk; path i occupies ``order[start[i]:start[i] +
    length[i]]``, ends at its one dart with outdeg other than 1, and
    ``smallest[i]`` is its smallest dart.  Per dart, ``anchor[e]`` is the
    last dart of e's path, the first with outdeg other than 1 reached along
    single successors, and ``dist[e]`` the number of steps from e to it."""

    order: np.ndarray
    start: np.ndarray
    length: np.ndarray
    smallest: np.ndarray
    anchor: np.ndarray
    dist: np.ndarray


class Graph:
    """Immutable undirected multigraph with a materialized dart table.

    Build instances through :func:`build_graph` (or the generators in
    :mod:`nbrw.families`); the constructor performs full validation.
    """

    def __init__(self, vertex_count: int, edges: list[tuple[int, int, str]]):
        if vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int, str], ...] = tuple(
            _checked_edge(vertex_count, a, b, kind) for a, b, kind in edges
        )

        ends = np.asarray([(a, b) for a, b, _ in self.edges], dtype=np.int64).reshape(-1, 2)
        is_half = np.asarray([kind == HALF_LOOP for _, _, kind in self.edges], dtype=bool)
        paired, halves = np.flatnonzero(~is_half), np.flatnonzero(is_half)
        paired_darts = 2 * len(paired)
        self.dart_tail = np.concatenate([ends[paired].ravel(), ends[halves, 0]])
        self.dart_head = np.concatenate([ends[paired, ::-1].ravel(), ends[halves, 0]])
        self.dart_reverse = np.concatenate(
            [np.arange(paired_darts) ^ 1, np.arange(paired_darts, paired_darts + len(halves))]
        )
        self.dart_edge = np.concatenate([np.repeat(paired, 2), halves])
        self.dart_count = len(self.dart_tail)

        # a vertex's degree is the number of darts leaving it
        self.degrees = np.bincount(self.dart_tail, minlength=vertex_count).astype(np.int64)

        # darts grouped by tail vertex, each group sorted by dart index
        self._out_darts_flat = np.argsort(self.dart_tail, kind="stable").astype(np.int64)
        self._out_darts_offsets = np.zeros(vertex_count + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self._out_darts_offsets[1:])

    @property
    def out_dart_table(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(offsets, flat)`` of the darts leaving each vertex, ascending."""
        return self._out_darts_offsets, self._out_darts_flat

    def out_degree(self, dart_index: int) -> int:
        """Number of non-backtracking continuations: degree(head) - 1."""
        return int(self.degrees[self.dart_head[dart_index]]) - 1

    def in_degree(self, dart_index: int) -> int:
        return int(self.degrees[self.dart_tail[dart_index]]) - 1

    def out_degree_vector(self) -> np.ndarray:
        return self.degrees[self.dart_head] - 1

    @cached_property
    def chain_successor(self) -> np.ndarray:
        """The only successor of each dart whose head has degree two, -1 for
        every other dart.  Built on first use, so read-only."""
        chain = np.flatnonzero(self.degrees[self.dart_head] == 2)
        first = self._out_darts_offsets[self.dart_head[chain]]
        a, b = self._out_darts_flat[first], self._out_darts_flat[first + 1]
        successor = np.full(self.dart_count, -1, dtype=np.int64)
        successor[chain] = np.where(a == self.dart_reverse[chain], b, a)
        successor.flags.writeable = False
        return successor

    @cached_property
    def suspended_paths(self) -> SuspendedPaths:
        """The darts laid out path by path (see :class:`SuspendedPaths`),
        built on first use, so read-only; defined for every graph with no
        cycle component.

        Paths start at darts with indeg other than 1 (indeg > 1 on an
        nb-irreducible graph) and extend while outdeg is 1.  A dart with
        indeg 1 has one predecessor, the dart whose only successor it is;
        pointer doubling over predecessors finds every dart's path start and
        position in O(D log D).
        """
        d = self.dart_count
        is_start = self.degrees[self.dart_tail] != 2
        chain = np.flatnonzero(self.chain_successor >= 0)
        ancestor = np.arange(d)
        ancestor[self.chain_successor[chain]] = chain  # the one predecessor of each dart with indeg 1
        position = (~is_start).astype(np.int64)
        for _ in range(d.bit_length() + 1):
            if is_start[ancestor].all():
                break
            position += position[ancestor]
            ancestor = ancestor[ancestor]
        else:
            raise GraphError("suspended path did not terminate: the graph has a cycle component")
        order = np.argsort(ancestor * d + position)
        start = np.flatnonzero(position[order] == 0)
        length = np.diff(np.append(start, d))
        last = np.repeat(start + length - 1, length)  # each place's path end, in path order
        anchor, dist = np.empty_like(order), np.empty_like(order)
        anchor[order] = order[last]
        dist[order] = last - np.arange(d)
        paths = SuspendedPaths(order, start, length, np.minimum.reduceat(order, start), anchor, dist)
        for array in vars(paths).values():
            array.flags.writeable = False
        return paths

    @cached_property
    def irreducibility(self) -> IrreducibilityVerdict:
        """:func:`is_nb_irreducible` of this graph, computed on first use."""
        return is_nb_irreducible(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, edges={len(self.edges)}, darts={self.dart_count})"


def build_graph(vertex_count: int, edge_list: list[tuple[int, int] | tuple[int, int, str]]) -> Graph:
    """Build a multigraph from ``(a, b)`` or ``(a, b, kind)`` tuples.

    Kinds are ``"normal"`` (default), ``"whole_loop"`` and ``"half_loop"``;
    a normal edge with equal endpoints is stored as a whole-loop.
    """
    edges = [(*item, NORMAL) if len(item) == 2 else tuple(item) for item in edge_list]
    return Graph(vertex_count, edges)  # type: ignore[arg-type]


def is_nb_irreducible(g: Graph) -> IrreducibilityVerdict:
    """Check connectivity, min degree >= 2, max degree > 2, in that order.

    These three conditions together are exactly when the non-backtracking
    walk visits every dart from every dart.
    """
    if g.vertex_count == 0 or not _is_connected(g):
        return IrreducibilityVerdict.NOT_CONNECTED
    if int(g.degrees.min()) < 2:
        return IrreducibilityVerdict.MIN_DEGREE_BELOW_2
    if int(g.degrees.max()) <= 2:
        return IrreducibilityVerdict.IS_CYCLE
    return IrreducibilityVerdict.OK


def _is_connected(g: Graph) -> bool:
    if g.vertex_count > len(g.edges) + 1:  # a spanning tree needs V - 1 edges
        return False
    return not _component_labels(g.vertex_count, g.dart_tail, g.dart_head).any()


def _component_labels(vertex_count: int, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The smallest vertex in each vertex's component over the arcs
    ``tail -> head``, closed under reversal like the darts of some edges.
    Min-label hooking: every root takes the smallest root across its arcs,
    then pointer jumping sends every vertex to its root."""
    label = np.arange(vertex_count)
    while True:
        tails, heads = label[tail], label[head]
        cross = tails != heads
        if not cross.any():
            return label
        np.minimum.at(label, tails[cross], heads[cross])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


# --- text format: nbrw._text holds the one parser and the one writer --------


def parse_graph_text(text: str) -> Graph:
    return Graph(*parse_text(text))


def format_graph_text(g: Graph, comment: str | None = None) -> str:
    return format_text(g.vertex_count, g.edges, comment)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def save_graph(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g, comment))
