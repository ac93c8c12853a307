"""Generators for the graph families used throughout the package.

All generators label vertices canonically (hub first, junctions next,
subdivision vertices in edge order) so that emitted witnesses and text
files are reproducible.  Each family has one pure-Python builder of
``(vertex_count, edges)``, which ``nbrw gen`` writes without numpy; it
refuses, before building, more than ``_MAX_VERTEX_COUNT`` vertices or edges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._text import _MAX_VERTEX_COUNT, HALF_LOOP

if TYPE_CHECKING:
    from .graph import Graph

K4_MINUS_EDGE = (4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))  # (vertex_count, edges)


def _check_size(family: str, vertices: int, edges: int) -> None:
    if max(vertices, edges) > _MAX_VERTEX_COUNT:
        raise ValueError(f"{family} would have {vertices} vertices and {edges} edges; at most {_MAX_VERTEX_COUNT}")


def _build(vertex_count: int, edges) -> Graph:
    from .graph import build_graph

    return build_graph(vertex_count, edges)


def k4_minus_edge() -> Graph:
    """Complete graph on four vertices minus one edge.

    Vertices 0 and 1 are the degree-3 endpoints of the surviving diagonal;
    vertices 2 and 3 have degree 2.  Ten darts in total.
    """
    return _build(*K4_MINUS_EDGE)


def complete_edges(n: int) -> tuple[int, list]:
    if n < 3:
        raise ValueError("complete graph needs n >= 3")
    _check_size("complete graph", n, n * (n - 1) // 2)
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_graph(n: int) -> Graph:
    return _build(*complete_edges(n))


def complete_bipartite_edges(a: int, b: int) -> tuple[int, list]:
    if a < 2 or b < 2:
        raise ValueError("complete bipartite graph needs both sides >= 2")
    _check_size("complete bipartite graph", a + b, a * b)
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return _build(*complete_bipartite_edges(a, b))


def _paths(vertex_count: int, ends) -> tuple[int, list]:
    """Each ``(a, b, segments)`` of ``ends`` as an a-b path of that many
    edges, through new vertices numbered on from ``vertex_count``."""
    edges: list[tuple[int, int]] = []
    for a, b, segments in ends:
        for new in range(vertex_count, vertex_count + segments - 1):
            edges.append((a, new))
            a = new
        edges.append((a, b))
        vertex_count += segments - 1
    return vertex_count, edges


def wheel_edges(n: int, l1: int, l2: int) -> tuple[int, list]:
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    if l1 < 1 or l2 < 1:
        raise ValueError("segment counts must be >= 1")
    _check_size("wheel", 1 + n * (l1 + l2 - 1), n * (l1 + l2))
    cycle = [(1 + i, 1 + (i + 1) % n, l1) for i in range(n)]
    return _paths(n + 1, cycle + [(0, 1 + i, l2) for i in range(n)])


def wheel_graph(n: int, l1: int, l2: int) -> Graph:
    """Wheel with n spokes, cycle edges split into l1 segments and spokes
    into l2 segments.

    Vertex 0 is the hub (degree n), vertices 1..n are the cycle junctions
    (degree 3), and subdivision vertices (degree 2) follow in edge order:
    first the n cycle sections, then the n spokes.
    """
    return _build(*wheel_edges(n, l1, l2))


def equal_growth_wheel(k: int) -> Graph:
    """The k-th member of the subdivided-wheel family whose two growth
    rates coincide.

    With n = 2**k + 1 spokes, the cycle/spoke segment counts that balance
    the two suspended-path types are (2, k+1) for even k and (1, (k+1)/2)
    for odd k.  The two counts are then coprime, so the graph is not a
    plain subdivision of a smaller one.
    """
    return wheel_graph(*equal_growth_wheel_parameters(k))


def equal_growth_wheel_parameters(k: int) -> tuple[int, int, int]:
    """(n, l1, l2) used by :func:`equal_growth_wheel`, for k up to 22."""
    if k < 1:
        raise ValueError("family index must be >= 1")
    if k >= _MAX_VERTEX_COUNT.bit_length():  # the 2**k + 1 spokes alone pass the bound
        raise ValueError(f"equal-growth wheel k={k} would have more than 2**{k} vertices; at most {_MAX_VERTEX_COUNT}")
    n = 2**k + 1
    return (n, 2, k + 1) if k % 2 == 0 else (n, 1, (k + 1) // 2)


def subdivided_edges(vertex_count: int, edges: list[tuple[int, int, str]], m: int) -> tuple[int, list]:
    """:func:`subdivide` on ``(vertex_count, edges)`` of ``(a, b, kind)`` edges."""
    if m < 1:
        raise ValueError("subdivision factor must be >= 1")
    if any(kind == HALF_LOOP for _, _, kind in edges):
        raise ValueError("cannot subdivide a graph with half-loops")
    _check_size("subdivision", vertex_count + len(edges) * (m - 1), len(edges) * m)
    return _paths(vertex_count, [(a, b, m) for a, b, _ in edges])


def subdivide(g: Graph, m: int) -> Graph:
    """Replace every edge by a path of m edges (m-1 new degree-2 vertices).

    Whole-loops become cycles hanging on their anchor vertex; half-loops
    are rejected because a half-loop has no two-ended subdivision.
    """
    return _build(*subdivided_edges(g.vertex_count, g.edges, m))
