"""Undirected multigraphs with dart (directed-edge) indexing.

A dart is one orientation of an undirected edge.  Normal edges and
whole-loops contribute two mutually-reverse darts; a half-loop contributes
a single dart that is its own reverse.  Darts of the i-th paired edge
occupy indices 2i and 2i+1 (reverse = index XOR 1); half-loop darts are
appended after all paired darts: :func:`nbrw._text.number_darts`.  The
darts are laid out once, by :func:`nbrw._kernels.walk_tables`: the verdict,
the out-dart table, the chain successors and the path layout are read off
its output.
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
        tail, self._paired = number_darts(self.edges)
        self.dart_tail = np.asarray(tail, dtype=np.int64)
        self.dart_count = len(tail)
        self.dart_reverse = np.arange(self.dart_count) ^ (np.arange(self.dart_count) < self._paired)
        self.dart_head = self.dart_tail[self.dart_reverse]

    @cached_property
    def degrees(self) -> np.ndarray:
        """The number of darts leaving each vertex.  Like every per-vertex
        table, built on first use, after :func:`is_nb_irreducible` can
        refuse a header that the edges cannot connect."""
        return np.bincount(self.dart_tail, minlength=self.vertex_count).astype(np.int64)

    @cached_property
    def _layout(self) -> tuple:
        """:func:`nbrw._kernels.walk_tables` of this graph, built on first
        use: its verdict, then ``out_flat``, the rows of ``dart_table``,
        ``value_index`` and the tracked degrees as read-only numpy views."""
        from ._kernels import walk_tables

        verdict, out_flat, dart_table, value_index, degrees = walk_tables(self.vertex_count, self._paired,
                                                                           self.dart_tail)
        return (verdict, np.frombuffer(out_flat, np.int64), np.frombuffer(dart_table, np.int64).reshape(5, -1),
                np.frombuffer(value_index, np.int32), np.frombuffer(degrees, np.int64))

    @cached_property
    def out_dart_table(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(offsets, flat)`` of the darts leaving each vertex, ascending."""
        offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=offsets[1:])
        return offsets, self._layout[1]

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
        _, flat, (first, skip, outdeg, _, _), *_ = self._layout
        chain = np.flatnonzero(outdeg == 1)
        k = first[chain]
        successor = np.full(self.dart_count, -1, dtype=np.int64)
        successor[chain] = flat[k + (k >= skip[chain])]
        successor.flags.writeable = False
        return successor

    @cached_property
    def suspended_paths(self) -> SuspendedPaths:
        """The path layout (see :class:`SuspendedPaths`), built on first use,
        so read-only; defined for every graph with no cycle component.
        ``anchor`` and ``dist`` are the rows of the walk tables."""
        anchor, dist = self._layout[2][3:]
        if (dist < 0).any():
            raise GraphError("suspended path did not terminate: the graph has a cycle component")
        is_last = dist == 0
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
    walk visits every dart from every dart.  The sizes are tested first, so
    a header that the edges cannot connect costs nothing per vertex; the
    table builder that lays out ``g`` decides the rest.
    """
    if cannot_connect(g.vertex_count, len(g.edges)):
        return IrreducibilityVerdict.NOT_CONNECTED
    return IrreducibilityVerdict(g._layout[0])


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
