"""Undirected multigraphs with dart (directed-edge) indexing.

A dart is one orientation of an undirected edge.  Normal edges and
whole-loops contribute two mutually-reverse darts; a half-loop contributes
a single dart that is its own reverse.  Darts of the i-th paired edge
occupy indices 2i and 2i+1 (reverse = index XOR 1); half-loop darts are
appended after all paired darts: :func:`nbrw._text.number_darts`, which
the compiled walk tables read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# the edge kinds, both errors and the verdict are this module's public names too
from ._text import (HALF_LOOP, NORMAL, WHOLE_LOOP, EdgeList, GraphError, GraphParseError, IrreducibilityVerdict,
                    cannot_connect, checked_edge_list, format_text, number_darts, parse_text)


@dataclass(frozen=True)
class SuspendedPaths:
    """The kernel graph: the vertices of degree other than 2, joined by the
    suspended paths, indexed by their last dart (outdeg other than 1).

    Per path i: ``last[i]``, ``length[i]`` darts, ``reverse[i]``, the
    reversed path (an involution), and ``vertex[i]``, head(last[i]) numbered
    among the ``vertex_count`` vertices of degree other than 2, ascending.
    Path i begins at rev(last[reverse[i]]).  Per dart e: ``path[e]``,
    ``anchor[e] = last[path[e]]`` and ``dist[e]``, the steps from e to it."""

    last: np.ndarray
    length: np.ndarray
    reverse: np.ndarray
    vertex: np.ndarray
    vertex_count: int
    path: np.ndarray
    anchor: np.ndarray
    dist: np.ndarray


class Graph:
    """Immutable undirected multigraph with a materialized dart table, built from an
    :class:`~nbrw._text.EdgeList` that :func:`build_graph` or ``parse_text`` checked and bounded."""

    def __init__(self, edge_list: EdgeList, *unchecked):
        if unchecked or not isinstance(edge_list, EdgeList):
            raise TypeError("Graph takes a checked EdgeList: build one with build_graph or parse_text")
        self.vertex_count = edge_list.vertex_count
        self.edges: tuple[tuple[int, int, str], ...] = tuple(edge_list.edges)
        tail, paired = number_darts(self.edges)
        self.dart_tail = np.asarray(tail, dtype=np.int64)
        self.dart_count = len(tail)
        self.dart_reverse = np.arange(self.dart_count) ^ (np.arange(self.dart_count) < paired)
        self.dart_head = self.dart_tail[self.dart_reverse]

    @cached_property
    def degrees(self) -> np.ndarray:
        """The number of darts leaving each vertex.  Like every per-vertex
        table, built on first use, after :func:`is_nb_irreducible` can
        refuse a header that the edges cannot connect."""
        return np.bincount(self.dart_tail, minlength=self.vertex_count).astype(np.int64)

    @cached_property
    def out_dart_table(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(offsets, flat)`` of the darts leaving each vertex, ascending."""
        offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        return offsets, np.argsort(self.dart_tail, kind="stable").astype(np.int64)

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
        offsets, flat = self.out_dart_table
        first = offsets[self.dart_head[chain]]
        a, b = flat[first], flat[first + 1]
        successor = np.full(self.dart_count, -1, dtype=np.int64)
        successor[chain] = np.where(a == self.dart_reverse[chain], b, a)
        successor.flags.writeable = False
        return successor

    @cached_property
    def suspended_paths(self) -> SuspendedPaths:
        """The path layout (see :class:`SuspendedPaths`), built on first use,
        so read-only; defined for every graph with no cycle component.

        A dart with outdeg 1 moves to its one successor and every other dart
        stays put; pointer doubling along those moves finds each dart's
        anchor and distance in O(D log D).
        """
        successor = self.chain_successor
        is_last = successor < 0
        anchor = np.where(is_last, np.arange(self.dart_count), successor)
        dist = (~is_last).astype(np.int64)
        for _ in range(self.dart_count.bit_length() + 1):
            if is_last[anchor].all():
                break
            dist += dist[anchor]
            anchor = anchor[anchor]
        else:
            raise GraphError("suspended path did not terminate: the graph has a cycle component")
        last = np.flatnonzero(is_last)
        path = (np.cumsum(is_last) - 1)[anchor]
        branching = self.degrees != 2
        paths = SuspendedPaths(
            last, np.bincount(path, minlength=len(last)), path[self.dart_reverse[last]],
            (np.cumsum(branching) - 1)[self.dart_head[last]], int(branching.sum()), path, anchor, dist,
        )
        for array in vars(paths).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return paths

    @cached_property
    def irreducibility(self) -> IrreducibilityVerdict:
        """:func:`is_nb_irreducible` of this graph, computed on first use."""
        return is_nb_irreducible(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, edges={len(self.edges)}, darts={self.dart_count})"


def build_graph(vertex_count: int, edge_list: list[tuple[int, int] | tuple[int, int, str]]) -> Graph:
    """Build a multigraph of at most 2**22 vertices and 2**22 edges, as a
    graph file may have, from ``(a, b)`` or ``(a, b, kind)`` tuples.

    Kinds are ``"normal"`` (default), ``"whole_loop"`` and ``"half_loop"``;
    a normal edge with equal endpoints is stored as a whole-loop.
    """
    return Graph(checked_edge_list(vertex_count, edge_list))


def is_nb_irreducible(g: Graph) -> IrreducibilityVerdict:
    """Check connectivity, min degree >= 2, max degree > 2, in that order.

    These three conditions together are exactly when the non-backtracking
    walk visits every dart from every dart.
    """
    if cannot_connect(g.vertex_count, len(g.edges)) or not _is_connected(g):
        return IrreducibilityVerdict.NOT_CONNECTED
    if int(g.degrees.min()) < 2:
        return IrreducibilityVerdict.MIN_DEGREE_BELOW_2
    if int(g.degrees.max()) <= 2:
        return IrreducibilityVerdict.IS_CYCLE
    return IrreducibilityVerdict.OK


def _is_connected(g: Graph) -> bool:
    """Whether every vertex's component label, the smallest vertex in its
    component over the darts, is 0.  Min-label hooking: every root takes
    the smallest root across its darts, then pointer jumping sends every
    vertex to its root."""
    label = np.arange(g.vertex_count)
    while True:
        tails, heads = label[g.dart_tail], label[g.dart_head]
        cross = tails != heads
        if not cross.any():
            return not label.any()
        np.minimum.at(label, tails[cross], heads[cross])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


# --- text format: nbrw._text holds the one parser and the one writer --------


def parse_graph_text(text: str) -> Graph:
    return Graph(parse_text(text))


def format_graph_text(g: Graph, comment: str | None = None) -> str:
    return format_text(g.vertex_count, g.edges, comment)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def save_graph(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g, comment))
