"""The graph text format, on plain edge lists and without numpy.

Line-oriented UTF-8: '#' starts a comment line, the first data line is
"nbgraph <vertex_count>", then one line per edge: "e <a> <b>" (a == b
means whole-loop) or "hl <a>" for a half-loop.  Vertex ids are 0-based.
Each edge is checked here, once, in a graph of at most 2**22 vertices and
edges (:class:`EdgeList`); the darts are numbered here (:func:`number_darts`)
for the one table builder, ``nbrw._kernels.walk_tables``, whether a
``Graph`` calls it or ``walks`` does on the edge list.  ``gen``, ``pdf`` and
``walk``, and ``analyze`` and ``asymvar`` on a header that the sizes refute
(:func:`cannot_connect`), build no ``Graph``, so their errors and verdicts
live here.
"""

from enum import Enum
from typing import NamedTuple

NORMAL = "normal"
WHOLE_LOOP = "whole_loop"
HALF_LOOP = "half_loop"

# the most vertices, and the most edges, that a graph may have: a header alone
# could otherwise ask for gigabytes, and the int64 bound of nbrw.conditions
# rests on it.  What analyze costs at this size is still open (ROADMAP)
_MAX_VERTEX_COUNT = 2**22


class GraphError(ValueError):
    """Invalid graph construction input."""


class PreconditionError(ValueError):
    """A graph does not satisfy an operation's stated precondition."""


class CapabilityError(ValueError):
    """A computation would exceed one of its stated limits: the exact bit
    law handles at most two distinct branching degrees, and the float
    variance solve must leave a strict graph's limit above 0."""


class IrreducibilityVerdict(str, Enum):
    OK = "ok"
    NOT_CONNECTED = "not_connected"
    MIN_DEGREE_BELOW_2 = "min_degree_below_2"
    IS_CYCLE = "is_cycle"


class EdgeList(NamedTuple):  # parse_text or checked_edge_list checked its size and edges; Graph trusts it
    vertex_count: int
    edges: list[tuple[int, int, str]]


def number_darts(edges) -> tuple[list[int], int]:
    """Each dart's tail, and ``paired``, of ``(a, b, kind)`` edges: the i-th
    normal edge or whole-loop gives darts 2i, tail a, and 2i + 1, tail b,
    each the other's reverse; the half-loop darts follow from ``paired`` on,
    each its own reverse."""
    tail, half_tail = [], []
    for a, b, kind in edges:
        if kind == HALF_LOOP:
            half_tail.append(a)
        else:
            tail += a, b
    return tail + half_tail, len(tail)


def cannot_connect(vertex_count: int, edge_count: int) -> bool:
    """Whether the sizes decide ``not_connected``: no vertex, or fewer than a spanning tree's V - 1 edges."""
    return vertex_count == 0 or vertex_count > edge_count + 1


def require_irreducible(verdict: str) -> None:
    """Raise :class:`PreconditionError` unless ``verdict`` is ``ok``."""
    if verdict != IrreducibilityVerdict.OK:
        raise PreconditionError(f"requires NB-irreducibility, got {IrreducibilityVerdict(verdict).value}")


class GraphParseError(GraphError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _checked_edge(vertex_count: int, a: int, b: int, kind: str = NORMAL) -> tuple[int, int, str]:
    """Validate one edge; a normal edge with equal endpoints becomes a whole-loop."""
    if kind not in (NORMAL, WHOLE_LOOP, HALF_LOOP):
        raise GraphError(f"unknown edge kind {kind!r}")
    if not (0 <= a < vertex_count and 0 <= b < vertex_count):
        raise GraphError(f"edge endpoint out of range: ({a}, {b})")
    if kind in (WHOLE_LOOP, HALF_LOOP) and a != b:
        raise GraphError(f"{kind} requires equal endpoints, got ({a}, {b})")
    if kind == NORMAL and a == b:
        kind = WHOLE_LOOP
    return a, b, kind


def checked_edge_list(vertex_count: int, edges) -> EdgeList:
    """The :class:`EdgeList` of ``(a, b)`` or ``(a, b, kind)`` edges, its size and every edge checked."""
    if not 0 <= vertex_count <= _MAX_VERTEX_COUNT:
        raise GraphError(f"vertex count {vertex_count} is outside 0..{_MAX_VERTEX_COUNT}")
    if len(edges) > _MAX_VERTEX_COUNT:
        raise GraphError(f"{len(edges)} edges; at most {_MAX_VERTEX_COUNT}")
    return EdgeList(vertex_count, [_checked_edge(vertex_count, *edge) for edge in edges])


def parse_text(text: str) -> EdgeList:
    """``(vertex_count, edges)`` of graph text, its size and every edge checked."""
    vertex_count = None
    edges: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if vertex_count is None:
            if fields[0] != "nbgraph" or len(fields) != 2:
                raise GraphParseError(lineno, "expected header 'nbgraph <vertex_count>'")
            try:
                vertex_count = int(fields[1])
            except ValueError:
                raise GraphParseError(lineno, f"invalid vertex count {fields[1]!r}") from None
            if not 0 <= vertex_count <= _MAX_VERTEX_COUNT:
                raise GraphParseError(lineno, f"vertex count {vertex_count} is outside 0..{_MAX_VERTEX_COUNT}")
            continue
        if fields[0] == "e" and len(fields) == 3:
            kind, ends, what = NORMAL, fields[1:], "edge endpoints"
        elif fields[0] == "hl" and len(fields) == 2:
            kind, ends, what = HALF_LOOP, fields[1:] * 2, "half-loop vertex"
        else:
            raise GraphParseError(lineno, f"unrecognized line {line!r}")
        if len(edges) == _MAX_VERTEX_COUNT:
            raise GraphParseError(lineno, f"more than {_MAX_VERTEX_COUNT} edges")
        try:
            a, b = int(ends[0]), int(ends[1])
        except ValueError:
            raise GraphParseError(lineno, f"invalid {what} in {line!r}") from None
        try:
            edges.append(_checked_edge(vertex_count, a, b, kind))
        except GraphError as exc:
            raise GraphParseError(lineno, str(exc)) from None
    if vertex_count is None:
        raise GraphParseError(1, "missing 'nbgraph' header")
    return EdgeList(vertex_count, edges)


def format_text(vertex_count: int, edges, comment: str | None = None) -> str:
    """Graph text of ``(a, b)`` or ``(a, b, kind)`` edges, in the order given."""
    lines = [f"# {part}" for part in comment.splitlines()] if comment else []
    lines.append(f"nbgraph {vertex_count}")
    lines.extend(f"hl {e[0]}" if e[-1] == HALF_LOOP else f"e {e[0]} {e[1]}" for e in edges)
    return "\n".join(lines) + "\n"
